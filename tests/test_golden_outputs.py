"""Every command's outputs, byte for byte, on one fixed archive: the
check in ``golden``, which also runs without pytest."""

import golden


def test_outputs_are_pinned(tmp_path):
    assert golden.run(tmp_path) == golden.GOLDEN
