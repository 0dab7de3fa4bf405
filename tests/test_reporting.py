import numpy as np
import pytest

from ensemble_oc import ControlSchedule, uniform_plan
from ensemble_oc.reporting import (
    load_report_schema,
    read_controls_csv,
    validate_schema,
    write_controls_csv,
)


def test_controls_csv_roundtrip(tmp_path, rng):
    plan = uniform_plan(1.0, 2, 0.1)
    sched = ControlSchedule.from_stacked(plan, rng.standard_normal((10, 3)))
    path = tmp_path / "controls.csv"
    write_controls_csv(path, plan, sched)
    back = read_controls_csv(path, plan)
    # 17 significant digits reproduce doubles exactly
    np.testing.assert_array_equal(back.stacked(), sched.stacked())


def test_schema_loads():
    schema = load_report_schema()
    assert schema["type"] == "object"
    assert "status" in schema["required"]


def test_validator_flags_missing_and_bad_type():
    schema = {
        "type": "object",
        "required": ["a"],
        "properties": {"a": {"type": "integer"}, "b": {"type": "string"}},
    }
    validate_schema({"a": 1}, schema)
    with pytest.raises(ValueError, match="missing required key 'a'"):
        validate_schema({}, schema)
    with pytest.raises(ValueError, match=r"\$\.a"):
        validate_schema({"a": "no"}, schema)
    with pytest.raises(ValueError):
        validate_schema({"a": True}, schema)  # bool is not an integer here


def test_validator_enum_and_items():
    schema = {"type": "array", "items": {"type": "string", "enum": ["x", "y"]}}
    validate_schema(["x", "y", "x"], schema)
    with pytest.raises(ValueError, match=r"\[2\]"):
        validate_schema(["x", "y", "z"], schema)


def test_row_writer_matches_the_per_value_writer(tmp_path, rng):
    # one %-format per row gives the bytes of csv.writer over "{:.17g}" values
    import csv

    from ensemble_oc.reporting import _write_rows

    rows = rng.standard_normal((801, 37)) * 10.0 ** rng.integers(-300, 300, (801, 37))
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 0.1, 1.0, 2.0]
    rows.flat[rng.choice(rows.size, 400, replace=False)] = rng.choice(specials, 400)
    header = ["t"] + [f"c_{i}" for i in range(36)]
    _write_rows(tmp_path / "new.csv", header, rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["{:.17g}".format(v) for v in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n" in (tmp_path / "new.csv").read_bytes()
