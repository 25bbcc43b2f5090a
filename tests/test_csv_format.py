"""The block CSV formatter prints exactly what "%.17g" prints."""

import numpy as np
import pytest

from smcsim.config import build_scenario, load_config, preset_path
from smcsim.csvformat import format_rows
from smcsim.sim import run_scenario, write_csv

# Significant digits the inputs are rounded to before formatting: short
# digit strings reach the formatter's trailing-zero, exact-integer and
# exponent-switch paths at every length. 17 keeps every double as it is.
DIGITS = list(range(1, 18))


def rounded(values, digits):
    fmt = f"%.{digits}g"
    return np.array([float(fmt % v) for v in values.ravel().tolist()]).reshape(values.shape)


def reference(block):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def edge_values():
    values = []
    for k in range(-12, 19):
        p = 10.0 ** k
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values += [1e-7, 1e-6, 2.5, 0.125, 0.5, 1.5, 9.5, 0.95, 99.5, 0.0625, 1e15 + 0.5,
               2.0 ** 50, 2.0 ** 51, 2.0 ** 52, 2.0 ** 53 + 2.0, 2.0 ** 53 + 1.0,
               2.0 ** 52 + 0.5, 4503599627370497.0,
               9999999999999998.0, 0.0, 5e-324, np.inf, np.nan,
               np.finfo(float).max, np.finfo(float).tiny]
    for x in (1e-10, 1e16):
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values = np.array(values)
    return np.concatenate([values, -values, [-0.0]])


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("ncols", [1, 3, 7])
def test_edge_values(digits, ncols):
    values = rounded(edge_values(), digits)
    values = np.concatenate([values, np.full(-values.size % ncols, 3.0)]).reshape(-1, ncols)
    assert format_rows(values) == reference(values)


@pytest.mark.parametrize("digits", [17, 12, 6, 1])
def test_uniform_over_decades(digits):
    rng = np.random.default_rng(20261018)
    values = rng.uniform(-1.0, 1.0, 30_000) * 10.0 ** rng.integers(-12, 18, 30_000)
    values = rounded(values.reshape(-1, 10), digits)
    assert format_rows(values) == reference(values)


def test_property_any_float():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        block=st.integers(1, 6).flatmap(lambda ncols: arrays(
            np.float64, st.tuples(st.integers(0, 8), st.just(ncols)),
            elements=st.floats(allow_nan=True, allow_infinity=True, width=64))),
    )
    def check(block):
        assert format_rows(block) == reference(block)

    check()


def linear_config():
    return {
        "name": "linear-short",
        "plant": {"kind": "linear", "a": 0.5, "b": 2.0},
        "uncertainty": {"kind": "smooth_multi_sine", "amplitudes": [1.5, 0.8],
                        "frequencies": [0.1, 0.13], "phases": [0.0, 1.0], "bound": 2.3},
        "controller": {"kind": "plestan", "K_bar": 20.0, "epsilon": 0.01, "kappa": 0.01,
                       "K0": 0.5},
        "x0": [-0.6],
        "integration": {"dt": 1e-4, "t_end": 0.3},
    }


def short(name):
    cfg = load_config(preset_path(name))
    cfg["integration"]["t_end"] = 0.3
    return cfg


@pytest.mark.parametrize("make", [lambda: short("regulation-square"), linear_config,
                                  lambda: short("tracking")],
                         ids=["regulation", "linear", "tracking"])
def test_write_csv_matches_savetxt(tmp_path, make):
    log = run_scenario(build_scenario(make()))
    ours, theirs = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    write_csv(log, ours)
    np.savetxt(theirs, log.as_matrix(), fmt="%.17g", delimiter=",",
               header=",".join(log.columns()), comments="")
    assert ours.read_bytes() == theirs.read_bytes()
