"""Corporate white pages -- the intro's motivating application, plus the
server-side controls a deployment needs, served by the directory service:
subtree access control, paged results and a size limit.  (Per-subject
binds are shown in ``directory_service.py``.)

Run:  python examples/white_pages.py
"""

from repro.apps.whitepages import WhitePages
from repro.security import AccessControlList
from repro.server import DirectoryService

pages = WhitePages("dc=att, dc=com")
boss = pages.add_person(
    ["research"], "jag", "h jagadish", "jagadish",
    telephone="9733608776", title="department head",
)
divesh = pages.add_person(
    ["research", "db"], "divesh", "divesh srivastava", "srivastava",
    telephone="9733608777", manager=boss,
)
pages.add_person(["research", "db"], "dimitra", "dimitra vista", "vista",
                 manager=divesh)
pages.add_person(["research", "db"], "laks", "laks lakshmanan", "lakshmanan",
                 manager=divesh)
pages.add_person(["research", "networking"], "kk", "k ramakrishnan",
                 "ramakrishnan", manager=boss, telephone="9733608700")
pages.add_person(["sales"], "milo", "tova milo", "milo", telephone="5551234")
pages.add_person(["legal"], "counsel", "general counsel", "counsel")


def main() -> None:
    print("== people search (L0 wildcards) ==")
    for entry in pages.search_people("s*a*"):
        print("  %s  <%s>" % (entry.first("commonName"), entry.dn))

    print("\n== nearest unit (the paper's ac/dc idiom) ==")
    for fragment in ("vista", "jagadish", "milo"):
        person = pages.search_people(fragment)[0]
        unit = pages.unit_of(person)
        print("  %-22s -> ou=%s" % (person.first("commonName"), unit.first("ou")))

    print("\n== org structure through dn-valued manager refs (L3) ==")
    for entry in pages.direct_reports(boss):
        print("  reports to jagadish:", entry.first("commonName"))
    chain = pages.management_chain(pages.search_people("vista")[0])
    print("  vista's chain:", " -> ".join(e.first("uid") for e in chain))
    busy = pages.managers_with_reports_over(1)
    print("  managers with >1 report:", [e.first("uid") for e in busy])

    print("\n== units with more than 2 direct members (L2 counting) ==")
    for unit in pages.units_with_headcount_over(2):
        print("  ou=%s" % unit.first("ou"))

    print("\n== phone book for research ==")
    for name, phone in pages.phone_book(["research"]):
        print("  %-22s %s" % (name, phone))

    print("\n== served: subtree access control, paged results, size limit ==")
    acl = AccessControlList()
    acl.allow("*", "dc=att, dc=com")          # the directory is public...
    acl.deny("*", "ou=legal, dc=att, dc=com")  # ...except legal
    service = DirectoryService(pages.instance, acl=acl)  # anonymous: no bind
    query = "( ? sub ? objectClass=inetOrgPerson)"
    print("  anonymous sees :", [e.first("uid") for e in service.search(query).entries])
    for number, page in enumerate(service.search_paged(query, 3), start=1):
        print("  page %d: %s" % (number, [e.first("uid") for e in page]))
    limited = service.search("( ? sub ? objectClass=*)", size_limit=4)
    print("  size-limited: %d of %d visible entries (%s)"
          % (len(limited), limited.total_size, limited.code))


if __name__ == "__main__":
    main()
