"""The subtree heat map: prefix-depth keying, EWMA decay under an
injected clock, coldest-cell eviction, and ranking."""

import pytest

from repro.model.dn import DN
from repro.obs import heatmap
from repro.obs.heatmap import CAPACITY, HALF_LIFE_S, SubtreeHeatMap


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


COM = DN.parse("dc=com")
ATT = DN.parse("dc=att, dc=com")
RESEARCH = DN.parse("ou=research, dc=att, dc=com")


class TestKeying:
    def test_cells_key_on_the_reversed_dn_prefix(self):
        heat = SubtreeHeatMap(depth=2, clock=FakeClock())
        heat.record_read(RESEARCH)          # prefix: (dc=com, dc=att)
        heat.record_read(ATT)               # same prefix
        heat.record_read(COM)               # shorter dn -> shallower cell
        cells = heat.hottest(10)
        assert len(cells) == 2
        top = cells[0]
        assert top["subtree"] == "dc=att, dc=com"
        assert top["reads_total"] == 2
        assert cells[1]["subtree"] == "dc=com"

    def test_root_dn_labels_as_root(self):
        heat = SubtreeHeatMap(depth=2, clock=FakeClock())
        heat.record_read(DN.parse(""))
        assert heat.hottest(1)[0]["subtree"] == "(root)"

    def test_writes_and_shipped_are_separate_axes(self):
        heat = SubtreeHeatMap(depth=1, clock=FakeClock())
        heat.record_read(COM, pages=7)
        heat.record_write(COM)
        heat.record_shipped(COM, entries=5)
        cell = heat.hottest(1)[0]
        assert cell["reads_total"] == 1
        assert cell["writes_total"] == 1
        assert cell["pages_total"] == 7
        assert cell["shipped_total"] == 5
        assert cell["heat"] == pytest.approx(1 + 1 + 7 + 5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SubtreeHeatMap(depth=0)


class TestDecay:
    def test_one_half_life_halves_the_decayed_counters(self):
        clock = FakeClock()
        heat = SubtreeHeatMap(depth=1, clock=clock)
        for _ in range(10):
            heat.record_read(COM, pages=2)
        clock.now += HALF_LIFE_S
        cell = heat.hottest(1)[0]
        assert cell["reads"] == pytest.approx(5.0)
        assert cell["pages"] == pytest.approx(10.0)
        # Lifetime totals never decay.
        assert cell["reads_total"] == 10 and cell["pages_total"] == 20

    def test_ranking_follows_current_load_not_lifetime(self):
        clock = FakeClock()
        heat = SubtreeHeatMap(depth=2, clock=clock)
        for _ in range(100):
            heat.record_read(ATT)          # historically hot
        clock.now += 20 * HALF_LIFE_S       # 20 half-lives: ~0
        for _ in range(3):
            heat.record_read(COM)          # currently hot
        ranked = heat.hottest(2)
        assert ranked[0]["subtree"] == "dc=com"
        assert ranked[0]["reads_total"] == 3
        assert ranked[1]["reads_total"] == 100

    def test_coldest_cell_is_evicted_at_capacity(self, monkeypatch):
        monkeypatch.setattr(heatmap, "CAPACITY", 2)
        clock = FakeClock()
        heat = SubtreeHeatMap(depth=2, clock=clock)
        heat.record_read(ATT, amount=100)
        heat.record_read(COM)              # cold
        clock.now += HALF_LIFE_S / 2
        # A genuinely new prefix at capacity evicts the coldest cell.
        heat.record_read(DN.parse("dc=example, dc=org"))
        labels = {c["subtree"] for c in heat.hottest(10)}
        assert "dc=com" not in labels
        assert heat.evicted == 1


class TestRanking:
    def test_by_field_selects_the_axis(self):
        heat = SubtreeHeatMap(depth=1, clock=FakeClock())
        heat.record_write(COM, amount=9)
        heat.record_read(ATT, pages=50)    # depth 1: same dc=com cell
        heat2 = SubtreeHeatMap(depth=2, clock=FakeClock())
        heat2.record_write(COM, amount=9)
        heat2.record_read(ATT, pages=50)
        assert heat2.hottest(1, by="writes")[0]["subtree"] == "dc=com"
        assert heat2.hottest(1, by="pages")[0]["subtree"] == "dc=att, dc=com"

    def test_unknown_axis_is_rejected(self):
        with pytest.raises(ValueError, match="by"):
            SubtreeHeatMap().hottest(1, by="vibes")

    def test_snapshot_is_json_ready(self):
        import json

        clock = FakeClock()
        heat = SubtreeHeatMap(depth=2, clock=clock)
        heat.record_read(ATT, pages=3)
        snap = heat.snapshot(n=5)
        json.dumps(snap)
        assert snap["depth"] == 2 and snap["cells"] == 1
        assert snap["capacity"] == CAPACITY == 512
        assert snap["half_life_s"] == HALF_LIFE_S == 300.0
        assert snap["hottest"][0]["subtree"] == "dc=att, dc=com"

    def test_reset(self):
        heat = SubtreeHeatMap(clock=FakeClock())
        heat.record_read(COM)
        heat.reset()
        assert len(heat) == 0 and heat.hottest(5) == []
