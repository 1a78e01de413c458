"""``two_halves``, the package's one use of the second core, and the rule
that keeps it safe: no worker outlives a call. Its other rule, that a half
calls no traced function, is checked in ``test_perfbench_hooks.py``; the
identity checks of its callers are
``test_rearrangement.py::TestFlattenStack::test_stack_equals_per_cell_calls``
and ``test_verify.py::TestMaxPairwiseKs``."""
import ast
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixcenter._halves import two_halves

SRC = Path(__file__).resolve().parents[1] / "src"


def _tagged(part, tag):
    """A result that shows which items a half got and that ``*args`` came along."""
    return tag, part.tolist() if isinstance(part, np.ndarray) else list(part)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(0, 12), as_array=st.booleans(), tag=st.integers())
def test_returns_both_halves_in_order(length, as_array, tag):
    items = np.arange(length) * 1.5 if as_array else [f"item{i}" for i in range(length)]
    h = length // 2
    threads = threading.active_count()
    got = two_halves(_tagged, items, tag)
    assert threading.active_count() == threads
    assert got == (_tagged(items[:h], tag), _tagged(items[h:], tag))


@pytest.mark.parametrize("in_worker", [True, False], ids=["first-half", "second-half"])
def test_error_in_a_half_is_raised_after_the_join(in_worker):
    finished = []

    def half(part):
        worker = threading.current_thread() is not threading.main_thread()
        if worker == in_worker:
            raise FloatingPointError("half failed")
        # the other half is still running when the failing one raises
        time.sleep(0.2)
        finished.append(part)

    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="half failed"):
        two_halves(half, [1, 2, 3, 4])
    assert finished == [[3, 4] if in_worker else [1, 2]]
    assert threading.active_count() == threads


def _sorted_halves():
    rng = np.random.default_rng(5)
    rows = rng.standard_cauchy((6, 20000))
    return np.concatenate(two_halves(np.sort, rows, 1)).tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_calls_again():
    # no worker outlives a call, so a child forked after one (as the CSV
    # writer forks after a mixer build) can split work again
    want = _sorted_halves()
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with native threads (such as
        # BLAS pools) forks; this test is about the threads of the call
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if _sorted_halves() == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def _futures_users(tree):
    """Names of the functions of ``tree`` that name ``concurrent.futures``
    ("<module>" for the module level)."""
    users = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        if any(name.startswith("concurrent") for name in names):
            users.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return users


def test_only_the_runner_uses_concurrent_futures():
    users = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _futures_users(ast.parse(path.read_text(), str(path)))
        if found:
            users[str(path.relative_to(SRC))] = found
    assert users == {os.path.join("mixcenter", "_halves.py"): {"two_halves"}}
