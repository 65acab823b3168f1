"""An acknowledged write comes back under the dn it was acknowledged at.

The WAL and the checkpoint store a dn as its string form, so recovery is
only as good as ``DN.parse(str(dn)) == dn``: a value whose edges are
whitespace must be escaped there, or the reopened directory holds the
entry under a different dn that no longer satisfies rdn(r) subseteq
val(r) (Definition 3.2d-ii).
"""

import pytest

from repro.model.dn import DN, RDN
from repro.server import DirectoryService, ResultCode
from repro.workload import balanced_instance


@pytest.mark.parametrize("checkpoint", [False, True], ids=["wal", "checkpoint"])
@pytest.mark.parametrize("value", [" w1", "w1 ", " w\t1\t", " ", "w,1 "])
def test_whitespace_edged_rdn_survives_reopen(tmp_path, value, checkpoint):
    data_dir = str(tmp_path / "data")
    service = DirectoryService(balanced_instance(40, seed=11), durable_dir=data_dir)
    parent = DN.parse("name=e1, name=e0")
    dn = DN((RDN.single("name", value),) + parent.rdns)
    assert service.add(dn, ["node"], {"name": [value]}) == ResultCode.SUCCESS
    if checkpoint:
        service.checkpoint()
    service.close()

    reopened = DirectoryService(None, durable_dir=data_dir)
    try:
        entry = reopened.directory.lookup(dn)
        assert entry is not None
        assert entry.dn == dn
        assert entry.dn.rdn.avas == frozenset({("name", value)})
        assert entry.rdn_consistent()
        found = reopened.search("(%s ? base ? objectClass=*)" % dn)
        assert [e.dn for e in found.entries] == [dn]
    finally:
        reopened.close()
