"""Generated differential of the per-access walks against the eager reference.

The one MEE generator (:mod:`mee_generator`) draws per-access op kinds
only: reads, writes, 16-byte read-modify-writes and multi-block spans
between tampers of every field, whole-region replays, power cycles, PCM
wear faults and tree calls outside the region.  The shipped walks, with
walk records prebuilt or built by the walks, must match the reference's
per-block walks, which rebuild each level's spans and label per call.
"""

from mee_generator import CACHES, FIELDS, KINDS, check_cases

#: The generator's op kinds without the bulk saves and restores.
PER_ACCESS = {
    kind: weight for kind, weight in KINDS.items()
    if kind not in ("save", "restore", "save_restore", "overlap")
}


class TestWalkDifferential:
    """Wall budget: 3 s for this class (about 0.5 s on a 2-core host)."""

    CASES = 12

    def test_walks_equal_the_reference(self):
        seen, raised = check_cases(range(1000, 1000 + self.CASES), kinds=PER_ACCESS)
        assert {("cache", cache) for cache in CACHES} <= seen
        assert {("device", "pcm"), ("device", "dram")} <= seen
        assert {("tamper", field) for field in FIELDS} <= seen
        assert ("padded everywhere", 5) in seen
        access = {word for path, name, word in raised if path == "access" and name == "SecurityError"}
        assert {"data", "tree", "root"} <= access
        assert ("tree", "SecurityError", "block") in raised  # a block outside the region
        assert any(path == "access" and name == "MemoryFault" for path, name, _ in raised)
