"""Table 1 — program behaviour of the spell checker (§5.2).

Regenerates the per-thread context-switch counts for all six
(concurrency, granularity) configurations and the dynamic save counts,
and checks the structural properties the paper's analysis rests on.
"""

import pytest

from repro.experiments.table1 import CONFIGS, render_table1, run_table1


@pytest.fixture(scope="module")
def table1(engine, scale):
    return run_table1(scale=scale, engine=engine)


def test_regenerate_table1(benchmark, results_dir, engine, scale):
    result = benchmark.pedantic(
        lambda: run_table1(scale=scale, engine=engine),
        rounds=1, iterations=1)
    (results_dir / "table1.txt").write_text(render_table1(result))


class TestTable1Shape:
    def test_switches_decrease_with_coarser_granularity(self, table1):
        for concurrency in ("high", "low"):
            fine = table1.total_switches((concurrency, "fine"))
            medium = table1.total_switches((concurrency, "medium"))
            coarse = table1.total_switches((concurrency, "coarse"))
            assert fine > medium > coarse

    def test_low_concurrency_switches_less(self, table1):
        for granularity in ("fine", "medium", "coarse"):
            high = table1.total_switches(("high", granularity))
            low = table1.total_switches(("low", granularity))
            assert low < high

    def test_dictionary_threads_pinned_to_buffer_size(self, table1,
                                                     scale):
        """T6/T7 block about once per M bytes: the column signature
        that pins the paper's buffer sizes (50001/12501/3126/49)."""
        dict_bytes = 50000 * scale
        for (concurrency, granularity), switches in table1.switches.items():
            m = {"fine": 1, "medium": 4, "coarse": 16}[granularity]
            if concurrency == "low":
                m = 1024
            expected = dict_bytes / m
            for name in ("T6.dict1", "T7.dict2"):
                got = switches[name]
                assert expected * 0.8 - 3 <= got <= expected * 1.3 + 3, (
                    (concurrency, granularity, name, got, expected))

    def test_output_thread_switches_least_at_high_concurrency(self,
                                                              table1):
        """At high concurrency T5 switches least (paper: 1005 vs
        ≥2653).  At low concurrency the dictionary threads drop below
        it (paper: 49 vs 135-197), so only the high configs apply."""
        for config in CONFIGS:
            if config[0] != "high":
                continue
            switches = table1.switches[config]
            assert switches["T5.output"] == min(switches.values())

    def test_dictionary_threads_switch_least_at_low_concurrency(self,
                                                                table1):
        """The low-concurrency signature (paper: T6/T7 at 49)."""
        for config in CONFIGS:
            if config[0] != "low":
                continue
            switches = table1.switches[config]
            least = min(switches.values())
            assert switches["T6.dict1"] == least
            assert switches["T7.dict2"] == least

    def test_save_counts_nonzero_for_every_thread(self, table1):
        for name, count in table1.saves.items():
            assert count > 0, name

    def test_spell_threads_dominate_saves(self, table1):
        """As in the paper, the filter threads (T1-T3) execute far
        more calls than the I/O threads."""
        filters = sum(table1.saves[n] for n in
                      ("T1.delatex", "T2.spell1", "T3.spell2"))
        io = sum(table1.saves[n] for n in
                 ("T4.input", "T5.output", "T6.dict1", "T7.dict2"))
        assert filters > io
