"""Generated differential: the shipped MEE against the eager reference.

:func:`~mee_generator.check_cases` runs seeded cases of the one
generator, every op kind mixed, in lockstep on the shipped engine, the
reference and (on DRAM) the shipped per-access twin; see
:mod:`mee_generator` for what is drawn and compared.  This test asserts
that the mix covers every cache, device, tamper field and op kind and
both set-up paths (a region image built and one replayed), and that
every reachable error occurs.
"""

from mee_generator import BULK, CACHES, FIELDS, KINDS, check_cases

from repro.sgx.mee import _IMAGE_SLOTS, _IMAGES


class TestMEEDifferential:
    """The shipped MEE against the reference, generated.

    Wall budget: 5 s for this class (1.6-1.8 s on a 2-core host).
    """

    CASES = 40

    def test_shipped_paths_equal_the_reference(self):
        seen, raised = check_cases(range(self.CASES))
        assert {("cache", cache) for cache in CACHES} <= seen
        assert {("device", "pcm"), ("device", "dram")} <= seen
        assert {("tamper", field) for field in FIELDS} <= seen
        assert {("padded everywhere", 5), ("served",)} <= seen
        assert {("image", "built"), ("image", "replayed")} <= seen
        assert len(_IMAGES) <= _IMAGE_SLOTS  # many geometries, a bounded memo
        ops = set(KINDS) - {"partial", "span", "save", "restore", "save_restore", "overlap"}
        ops |= {"snapshot", "multi-block", "16-byte read-modify-write", "empty bulk"}
        ops |= set(BULK) | {"unaligned bulk", "save over part of a pending save"}
        assert {("op", name) for name in ops} <= seen
        messages = {word for _path, name, word in raised if name == "SecurityError"}
        assert {"data", "tree", "root", "block"} <= messages  # every reachable SecurityError
        assert any(name == "MemoryFault" for _path, name, _word in raised)
