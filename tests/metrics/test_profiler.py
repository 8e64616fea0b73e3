"""The deterministic cycle-domain profiler: grid arithmetic, stack
folding, and the flamegraph/collapsed outputs."""

from repro.metrics.counters import Counters
from repro.metrics.export import collapsed_stacks
from repro.metrics.profiler import CycleProfiler, flamegraph_from_stacks
from tests.support.profiling import with_interval


class _FakeThread:
    def __init__(self, name, frames):
        self.name = name
        self.gen_stack = [_gen(frame) for frame in frames]


def _gen(name):
    code = compile("def %s():\n    yield\n" % name, "<fake>", "exec")
    ns = {}
    exec(code, ns)
    return ns[name]()


class TestSampling:
    def test_no_sample_below_first_boundary(self):
        prof = with_interval(CycleProfiler(), 100)
        counters = Counters()
        counters.compute_cycles = 99
        prof._check(None, None, counters)
        assert prof.samples == 0
        assert prof.checks == 1
        assert prof._cd == prof.check_every  # countdown re-armed

    def test_sample_attributes_delta_to_stack(self):
        prof = with_interval(CycleProfiler(), 100)
        counters = Counters()
        thread = _FakeThread("T1.main", ["outer", "inner"])
        counters.compute_cycles = 150
        prof._check(thread, None, counters)
        assert prof.samples == 1
        assert prof.stack_cycles == {"T1.main;outer;inner": 150}
        # grid advances past `now`, never to a boundary already crossed
        assert prof._next_cycle == 200

    def test_skipped_boundaries_collapse_into_one_sample(self):
        prof = with_interval(CycleProfiler(), 100)
        counters = Counters()
        thread = _FakeThread("T", ["f"])
        counters.compute_cycles = 150
        prof._check(thread, None, counters)
        counters.compute_cycles = 575  # crossed 200..500 unobserved
        prof._check(thread, None, counters)
        assert prof.samples == 2
        # cycle attribution stays exact: deltas sum to the clock
        assert prof.stack_cycles["T;f"] == 575
        assert prof._next_cycle == 600

    def test_idle_stack_label(self):
        prof = with_interval(CycleProfiler(), 10)
        counters = Counters()
        counters.compute_cycles = 10
        prof._check(None, None, counters)
        assert prof.stack_cycles == {"(idle)": 10}

    def test_check_op_attributes_opcode(self):
        prof = with_interval(CycleProfiler(), 10)
        counters = Counters()
        counters.compute_cycles = 12
        prof.check_op("hw0", "add", counters)
        counters.compute_cycles = 25
        prof.check_op("hw0", "smul", counters)
        assert prof.op_cycles == {"add": 12, "smul": 13}
        assert prof.stack_cycles == {"hw0": 25}

    def test_profile_section_is_sorted_and_complete(self):
        prof = with_interval(CycleProfiler(), 10)
        prof.check_every = 4
        counters = Counters()
        counters.compute_cycles = 11
        prof.check_op("b", "zz", counters)
        counters.compute_cycles = 21
        prof.check_op("a", "aa", counters)
        section = prof.profile_section()
        assert section["every"] == 10
        assert section["check_steps"] == 4
        assert section["samples"] == 2
        assert list(section["stacks"]) == ["a", "b"]
        assert list(section["ops"]) == ["aa", "zz"]


class TestFlamegraph:
    def test_folds_shared_prefixes(self):
        tree = flamegraph_from_stacks({
            "main;parse": 30,
            "main;parse;lex": 20,
            "main;eval": 50,
        })
        assert tree["name"] == "all"
        assert tree["value"] == 100
        (main,) = tree["children"]
        assert main["value"] == 100
        by_name = {c["name"]: c for c in main["children"]}
        assert by_name["eval"]["value"] == 50
        assert by_name["parse"]["value"] == 50
        (lex,) = by_name["parse"]["children"]
        assert lex["value"] == 20

    def test_children_sorted_deterministically(self):
        tree = flamegraph_from_stacks({"z": 1, "a": 1, "m": 1})
        assert [c["name"] for c in tree["children"]] == ["a", "m", "z"]

    def test_leaf_nodes_have_no_children_key(self):
        tree = flamegraph_from_stacks({"a;b": 5})
        leaf = tree["children"][0]["children"][0]
        assert "children" not in leaf

    def test_collapsed_output(self):
        stacks = {"main;f": 7, "main;g": 3}
        snapshot = {"profile": {"stacks": stacks}}
        assert collapsed_stacks(snapshot) == "main;f 7\nmain;g 3\n"
        assert flamegraph_from_stacks(stacks)["value"] == 10
