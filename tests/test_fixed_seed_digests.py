import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "fixed_seed_digests",
    Path(__file__).resolve().parent.parent / "tools" / "fixed_seed_digests.py",
)
fixed_seed_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fixed_seed_digests)


def test_one_epoch_digests_repeat_for_every_run():
    first = fixed_seed_digests.digests(epochs=1)
    assert [line.split()[0] for line in first] == [
        name for name, _, _ in fixed_seed_digests.RUNS
    ]
    for line in first:
        _, ckpt, hist = line.split()
        assert ckpt.startswith("checkpoint=") and len(ckpt) == len("checkpoint=") + 64
        assert hist.startswith("history=") and len(hist) == len("history=") + 64
    assert fixed_seed_digests.digests(epochs=1) == first
