"""The package imports numpy and scipy.sparse only, and exports what it lists.

The README's library example runs against the exports as documented.

The lattice convolution, the real FFT length and the angular integral of
the 2-d origin cell are computed with numpy and ``math``; these tests pin
each against the scipy routine it replaced.  The
exports are checked against what the traced bench (``bench/tracer.py``)
wraps.
"""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

import nlhjb as nl
from nlhjb.operators import _fast_len, _LatticeConvolution
from nlhjb.quadrature import _origin_cell_second_moment_2d

UNUSED = ("scipy.fft", "scipy.special", "scipy.integrate", "scipy.optimize")


def test_import_loads_no_unused_scipy_subpackage():
    src = str(Path(nl.__file__).resolve().parents[1])
    probe = ("import sys, nlhjb, nlhjb.cli; "
             f"print([m for m in {UNUSED!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, cwd=src, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def bench_tracer():
    """``bench/tracer.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def package_modules():
    return {info.name: importlib.import_module(f"nlhjb.{info.name}")
            for info in pkgutil.iter_modules(nl.__path__)}


def test_every_listed_export_resolves():
    missing = [f"nlhjb.{attr}" for attr in nl.__all__ if not hasattr(nl, attr)]
    for name, mod in package_modules().items():
        missing += [f"nlhjb.{name}.{attr}" for attr in getattr(mod, "__all__", ())
                    if not hasattr(mod, attr)]
    assert missing == []


def test_traced_bench_has_a_metric_for_every_module_with_public_functions():
    # the tracer wraps each function in a module's __all__ and raises KeyError
    # for a module that it neither maps to a metric nor leaves untraced
    tracer = bench_tracer()
    unmapped = [name for name, mod in package_modules().items()
                if name not in tracer.MODULE_METRIC and name not in tracer.UNTRACED
                and any(inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        for fn in (getattr(mod, a, None) for a in getattr(mod, "__all__", ())))]
    assert unmapped == []


def test_readme_library_example_runs(capsys):
    # the README's "Library use" block, executed as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    sol = namespace["sol"]
    assert sol.converged
    assert sum(sol.counts.linear_solves.values()) > 0
    assert capsys.readouterr().out.split() == [repr(sol.lambda_star), "True"]


def test_fast_len_matches_scipy():
    assert [_fast_len(n) for n in range(1, 5000)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 5000)]


def scipy_sums(conv, image):
    """``_LatticeConvolution.sums`` as computed with ``scipy.fft``."""
    d, F, K = conv.grid.d, conv.far, conv.grid._halfwidth
    A = (image.shape[0] - 1) // 2
    L = scipy.fft.next_fast_len(max(A + K + F + 1, 2 * F + 1, 2 * A + 1), real=True)
    wrapped = np.zeros((L,) * d)
    idx = np.arange(-F, F + 1) % L
    wrapped[np.ix_(*[idx] * d)] = conv.weights
    hat = scipy.fft.rfftn(wrapped)
    out = scipy.fft.irfftn(scipy.fft.rfftn(image, s=(L,) * d) * hat, s=(L,) * d)
    return out[tuple((conv.grid.lattice + A).T)], L


@pytest.mark.parametrize("d,hx,R,s", [(1, 0.25, 4.0, 0.75), (1, 0.0625, 8.0, 0.9),
                                      (2, 0.5, 3.0, 0.8), (2, 0.25, 2.5, 0.6)])
def test_lattice_sums_match_scipy_fft_bit_for_bit(d, hx, R, s):
    grid = nl.build_grid(d, hx, R)
    conv = _LatticeConvolution(grid, nl.build_quadrature(grid, s, R + 1.0))
    rng = np.random.default_rng(7)
    lengths = set()
    for A in range(grid._halfwidth, grid._halfwidth + 24):
        image = rng.normal(size=(2 * A + 1,) * d)
        want, L = scipy_sums(conv, image)
        assert np.array_equal(conv.sums(image), want)
        lengths.add(L)
    assert any(L % 2 for L in lengths) and any(L % 2 == 0 for L in lengths)


@pytest.mark.parametrize("d,hx,R,s", [(1, 0.25, 4.0, 0.75), (1, 0.0625, 8.0, 0.9),
                                      (2, 0.5, 3.0, 0.8), (2, 0.25, 2.5, 0.6)])
def test_lattice_apply_matches_scipy_fft_bit_for_bit(d, hx, R, s):
    # __call__ scatters u into the box of the grid's half-width K (A = K)
    grid = nl.build_grid(d, hx, R)
    conv = _LatticeConvolution(grid, nl.build_quadrature(grid, s, R + 1.0))
    K = grid._halfwidth
    for seed in range(4):
        u = np.random.default_rng(seed).normal(size=grid.n_nodes)
        image = np.zeros((2 * K + 1,) * d)
        image[tuple((grid.lattice + K).T)] = u
        assert np.array_equal(conv(u), scipy_sums(conv, image)[0] + conv.diag * u)


@pytest.mark.parametrize("s", [0.5001, 0.5625, 0.6, 0.9, 0.9999,
                               *np.linspace(0.51, 0.99, 25).round(2)])
def test_origin_cell_moment_matches_adaptive_quadrature(s):
    ang, _ = quad(lambda phi: np.cos(phi) ** (2 * s - 2.0), 0.0, np.pi / 4.0,
                  epsabs=1e-13, epsrel=1e-13)
    for hx in (0.5, 0.125):
        want = 0.5 * 8.0 * (0.5 * hx) ** (2 - 2 * s) / (2 - 2 * s) * ang
        got = _origin_cell_second_moment_2d(hx, s)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
