"""One of the package's two uses of the second core; ``cli._write_csv`` forks for the other."""


def two_halves(fn, items, *args):
    """``(fn(items[:h], *args), fn(items[h:], *args))`` with ``h = len(items) // 2``.

    The first half runs on a one-worker thread started for this call, the
    second in the caller; numpy's sorts and gathers release the GIL, so on
    two CPUs they run at once. Callers split independent items, so the
    bytes are those of one serial pass on any number of CPUs. The rule that
    keeps this safe: the worker is joined before the call returns or raises
    (an exception from either half is raised after the join), so no worker
    outlives a call and ``cli._write_csv`` may fork after one; and a half
    calls nothing that ``perfbench/layers.py`` wraps, since the span
    recorder keeps one stack of open spans per process and a traced call
    from the worker would corrupt its parent links.
    """
    from concurrent.futures import ThreadPoolExecutor

    half = len(items) // 2
    with ThreadPoolExecutor(1) as pool:
        first = pool.submit(fn, items[:half], *args)
        second = fn(items[half:], *args)
    return first.result(), second
