"""The traced benchmark run (perfbench/layers.py) wraps program names it
looks up by attribute. These tests run its ``install`` against a stub
recorder, so a refactor that drops or moves one of those names fails here
instead of breaking the traced run."""
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import mixcenter
from mixcenter.cauchy_mix import MixerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _StubRecorder:
    """Records what ``install`` would wrap, checking each name is defined
    on its owner itself (the real recorder reads ``vars(owner)[attr]``)."""

    def __init__(self):
        self.hooked = []

    def install(self, owner, attr, name, attrs=None):
        assert attr in vars(owner), f"{owner.__name__}.{attr} is not defined there"
        self.hooked.append(f"{owner.__name__}.{attr}")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers

    yield layers
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("cli", [False, True], ids=["library", "cli"])
def test_install_finds_every_hooked_name(layers, cli):
    rec = _StubRecorder()
    layers.install(rec, cli=cli)
    assert "ConstructiveMixer.clip_level" in rec.hooked
    assert "ConstructiveMixer.cell_coupling" in rec.hooked
    assert ("mixcenter.cli.build_mixer" in rec.hooked) == cli


@pytest.mark.parametrize("cli", [False, True], ids=["library", "cli"])
def test_install_loads_no_scipy(cli):
    """The traced run wraps the program without loading scipy, so a traced
    CLI child pays no scipy import that an untraced one would not."""
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import layers

        class Stub:
            def install(self, owner, attr, name, attrs=None):
                pass

        layers.install(Stub(), cli=sys.argv[2] == "cli")
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded[:5]
    """)
    src = os.path.dirname(os.path.dirname(mixcenter.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(PERFBENCH), "cli" if cli else "library"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cli", [False, True], ids=["library", "cli"])
def test_halves_call_no_traced_function(layers, capsys, tmp_path, cli):
    """The span recorder keeps one stack of open spans per process, so a
    half of ``two_halves`` must call nothing that ``install`` wraps: every
    traced call of a draw, or of a CLI sample and verify, is made on the
    main thread."""
    import spans

    callers = set()

    class ThreadRecorder(spans.Recorder):
        def wrap(self, name, fn, attrs=None):
            traced = super().wrap(name, fn, attrs)

            def wrapper(*args, **kwargs):
                callers.add(threading.current_thread())
                return traced(*args, **kwargs)

            return wrapper

    rec = ThreadRecorder()
    layers.install(rec, cli=cli)
    try:
        if cli:
            out = str(tmp_path / "rows.csv")
            assert mixcenter.cli.main(["sample", "--n", "3", "--c", "0.15", "--count", "2000",
                                       "--seed", "7", "--out", out]) == 0
            mixcenter.cli.main(["verify", out])
            capsys.readouterr()
        else:
            mixer = mixcenter.cauchy_mix.build_mixer(MixerConfig(n=3, c=0.15, seed=7))
            mixer.sample(2000, np.random.default_rng(7))
    finally:
        rec.uninstall()
    assert rec.spans
    assert callers == {threading.main_thread()}
