import numpy as np
import pytest

from mfgcontrols.config import build_spec, parse_config
from mfgcontrols.errors import ConfigParse


def _spec(tmp_path, **entries):
    base = {"dimension": 1, "nx": 16, "nt": 8, "horizon": 1.0, "q": 2.0, "r": 2.0, "s": 2.0}
    base.update(entries)
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return build_spec(parse_config(str(path)), base_dir=str(tmp_path))


def test_constant_expression(tmp_path):
    # m0 = constant v is normalized to unit mass; uT = constant v is the flat cost v
    spec = _spec(tmp_path, m0="constant 2.5", uT="constant -0.5")
    assert np.array_equal(spec.m0, np.ones(16))
    assert np.array_equal(spec.uT, np.full(16, -0.5))
    with pytest.raises(ConfigParse, match="constant expression needs one value"):
        _spec(tmp_path, m0="constant 1 2")


def test_matrices_are_row_major(tmp_path):
    # A and phi given as d*d and k*d numbers fill their matrices row by row; phi is the same at every node
    spec = _spec(tmp_path, dimension=2, nx=4, price_dim=3, A="0.02 0.001 0.003 0.01", phi="1 2 3 4 5 6")
    assert np.array_equal(spec.A, [[0.02, 0.001], [0.003, 0.01]])
    assert spec.phi.shape == (3, 2, 4, 4)
    assert np.array_equal(spec.phi[:, :, 1, 2], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(spec.phi, np.broadcast_to(spec.phi[:, :, :1, :1], spec.phi.shape))
    for key, text, count in (("A", "1 2 3", 4), ("phi", "1 2 3 4", 6)):
        with pytest.raises(ConfigParse, match=f"{key} needs 1 or {count} numbers, got"):
            _spec(tmp_path, dimension=2, nx=4, price_dim=3, **{key: text})
