import json
import math

import pytest

from qgreedy.bases import zoo
from qgreedy.bootstrap import bootstrap_chain
from qgreedy.democracy import democracy_profile
from qgreedy.estimates import BoundEstimate
from qgreedy.reports import chain_csv, csv_text, fmt, json_text


class TestFormatting:
    def test_float_roundtrip(self):
        assert fmt(0.1) == "0.1"
        assert float(fmt(1 / 3)) == 1 / 3

    def test_infinities(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"

    def test_csv_text_shape(self):
        text = csv_text(["a", "b"], [[1, 2.5], [3, math.inf]])
        assert text == "a,b\n1,2.5\n3,inf\n"


class TestSaveReport:
    def test_bound_estimate_roundtrip(self):
        est = BoundEstimate(lower=2.0, upper=math.inf, witness={"set": [0, 2]})
        data = json.loads(json_text(est))
        assert data["lower"] == 2.0
        assert data["upper"] == "inf"
        assert data["witness"]["set"] == [0, 2]

    def test_profile_serializes(self):
        basis = zoo("unit", p=0.5, dim=4)
        profile = democracy_profile(basis, m_max=3, mode="exact", budget=20, seed=0)
        data = json.loads(json_text(profile))
        assert len(data["rows"]) == 3
        assert data["rows"][0]["phi_u"]["lower"] == pytest.approx(1.0)
        assert data["democratic"] is True

    def test_chain_serializes(self):
        data = json.loads(json_text(bootstrap_chain(5, 2)))
        assert len(data["stages"]) == 3

    def test_deterministic_bytes(self, tmp_path):
        basis = zoo("difference", p=0.5, dim=6)
        a = democracy_profile(basis, m_max=4, mode="random", budget=50, seed=3)
        b = democracy_profile(basis, m_max=4, mode="random", budget=50, seed=3)
        assert json_text(a) == json_text(b)
        assert "".join(chain_csv(20, 3)) == "".join(chain_csv(20, 3))
