import json

import numpy as np
import pytest

from paic import (CriterionReport, GridBorderError, ImproperPriorError, NotPositiveDefiniteError,
                  PosteriorDraws, ValidationError)
from paic.fileio import (
    config_hash,
    data_row_line,
    fmt,
    provenance,
    read_draws_csv,
    read_observations_csv,
    read_reports_json,
    write_draws_csv,
    write_reports_csv,
    write_reports_json,
)


def test_fmt_17_significant_digits():
    assert fmt(1 / 3) == "0.33333333333333331"
    assert float(fmt(1 / 3)) == 1 / 3  # exact round trip
    assert fmt(2.0) == "2"


def test_observations_round_trip(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("y\n1.25\n-0.5\n3\n")
    data = read_observations_csv(str(path))
    np.testing.assert_array_equal(data.y, [1.25, -0.5, 3.0])
    assert data.trial_sizes is None


def test_observations_with_trials(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("y,n_trials\n3,10\n7,20\n")
    data = read_observations_csv(str(path))
    np.testing.assert_array_equal(data.trial_sizes, [10, 20])


def test_observations_reject_nan_with_line_number(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("y\n1.0\nnan\n2.0\n")
    with pytest.raises(ValidationError, match=":3"):
        read_observations_csv(str(path))


def test_observations_reject_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("value\n1.0\n2.0\n")
    with pytest.raises(ValidationError, match="header"):
        read_observations_csv(str(path))


def test_observations_reject_text_row(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("y\n1.0\noops\n")
    with pytest.raises(ValidationError, match=":3"):
        read_observations_csv(str(path))


def test_draws_round_trip(tmp_path):
    path = tmp_path / "draws.csv"
    mat = np.array([[0.1, 1 / 3], [-2.5, 7e-12], [1e100, -1 / 7]])
    draws = PosteriorDraws(mat, np.array([0, 0, 1]), 10, 99)
    write_draws_csv(str(path), draws)
    back = read_draws_csv(str(path))
    np.testing.assert_array_equal(back.draws, mat)  # bit-exact via 17 digits
    np.testing.assert_array_equal(back.chain_ids, [0, 0, 1])


def test_draws_reject_bad_header(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("a,b,chain\n1,2,0\n")
    with pytest.raises(ValidationError):
        read_draws_csv(str(path))


@pytest.mark.parametrize("p,S", [(1, 7), (17, 300), (3, 1)])
def test_draws_round_trip_shapes(tmp_path, p, S):
    path = tmp_path / "draws.csv"
    gen = np.random.default_rng(p * 1000 + S)
    mat = gen.standard_normal((S, p)) * np.exp(4.0 * gen.standard_normal(p))
    ids = np.sort(gen.integers(0, 4, S))
    write_draws_csv(str(path), PosteriorDraws(mat, ids, 0, 0))
    back = read_draws_csv(str(path))
    np.testing.assert_array_equal(back.draws, mat)
    np.testing.assert_array_equal(back.chain_ids, ids)
    assert back.draws.shape == (S, p)
    assert back.chain_ids.dtype.kind == "i"


DRAW_HEADER = "theta_1,theta_2,chain\n"


@pytest.mark.parametrize("body,message", [
    ("0.5,1.5,0\n\n0.25,abc,1\n", ":4: column 'theta_2' is not numeric: 'abc'"),
    ("0.5,1.5,0\nnan,1.0,0\n", ":3: column 'theta_1' is not finite: 'nan'"),
    ("0.5,inf,0\n", ":2: column 'theta_2' is not finite: 'inf'"),
    ("0.5,1.5,0\n0.5,1.5\n", ":3: expected 3 fields"),
    ("0.5,1.5,0\n0.5,1.5,1.0\n", ":3: chain id must be an integer"),
    ("0.5,1.5#2,0\n", ":2: column 'theta_2' is not numeric: '1.5#2'"),
    ("", ": no draws"),
    ("\n,,\n", ": no draws"),
], ids=["text", "nan", "inf", "field-count", "float-chain", "hash", "header-only",
        "blank-only"])
def test_draws_reject_malformed_body(tmp_path, body, message):
    path = tmp_path / "draws.csv"
    path.write_text(DRAW_HEADER + body)
    with pytest.raises(ValidationError) as err:
        read_draws_csv(str(path))
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("body", [
    '"0.5","1.5","0"\n-2,3e-5,1\n',
    "0.5,1.5,0\n\n-2,3e-5,1\n\n",
    "0.5,1.5,0\n,,\n-2,3e-5,1\n",
    " 0.5 ,1.5, 0\r\n-2,3e-5,+1\r\n",
], ids=["quoted", "blank-rows", "empty-fields-row", "spaces-crlf"])
def test_draws_accept_what_the_row_parser_accepts(tmp_path, body):
    path = tmp_path / "draws.csv"
    path.write_text(DRAW_HEADER + body, newline="")
    back = read_draws_csv(str(path))
    np.testing.assert_array_equal(back.draws, [[0.5, 1.5], [-2.0, 3e-5]])
    np.testing.assert_array_equal(back.chain_ids, [0, 1])


@pytest.mark.parametrize("reader,text", [
    (read_observations_csv, "y\n0.5\n"),
    (read_draws_csv, DRAW_HEADER + "0.5,1.5,0\n"),
    (data_row_line, "y\n0.5\n"),
], ids=["observations", "draws", "data-row-line"])
@pytest.mark.parametrize("rows", [1, 5000])  # inside the first read buffer, and past it
def test_non_utf8_file_names_the_file(tmp_path, reader, text, rows):
    # the last row holds a Latin-1 byte
    header, row = text.split("\n", 1)
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{header}\n{row * rows}".encode() + b"2\xe9\n")
    args = (rows,) if reader is data_row_line else ()
    with pytest.raises(ValidationError, match="not UTF-8 text") as err:
        reader(str(path), *args)
    assert str(err.value).startswith(f"{path}: ")


def _reports():
    return [
        CriterionReport("paic", -2.0 * 1.5 + 2 * 0.25, 1.5, 0.25, 10, 1000,
                        notes="x", warnings=("w1",), seed=7),
        CriterionReport("waic2", -2.0 * 1.5 + 2 * (1 / 3), 1.5, 1 / 3, 10, 1000,
                        seed=7),
    ]


def test_reports_json_round_trip(tmp_path):
    path = tmp_path / "r.json"
    prov = provenance({"a": 1}, 7)
    write_reports_json(str(path), _reports(), prov)
    prov2, reports, errors = read_reports_json(str(path))
    assert prov2 == prov
    assert errors == []
    assert reports == _reports()


def test_reports_json_empty_list_is_valid(tmp_path):
    path = tmp_path / "r.json"
    write_reports_json(str(path), [], provenance({}, 0))
    payload = json.loads(path.read_text())
    assert payload["reports"] == []


def test_reports_json_error_entries(tmp_path):
    path = tmp_path / "r.json"
    write_reports_json(str(path), _reports(), provenance({}, 0),
                       errors=[("bpic", ImproperPriorError("BPIC undefined under degenerate prior")),
                               ("loo", GridBorderError("border", border_mass=np.float64(0.5))),
                               ("paic", NotPositiveDefiniteError("J", np.array([-1.0, 2.0])))])
    _, reports, errors = read_reports_json(str(path))
    assert len(reports) == 2
    assert errors == [
        {"criterion": "bpic", "error": "BPIC undefined under degenerate prior",
         "error_type": "ImproperPriorError"},
        {"criterion": "loo", "error": "border", "error_type": "GridBorderError",
         "border_mass": 0.5},
        {"criterion": "paic", "error": "J", "error_type": "NotPositiveDefiniteError",
         "eigenvalues": [-1.0, 2.0]},
    ]


def test_reports_csv_format(tmp_path):
    path = tmp_path / "r.csv"
    prov = provenance({"a": 1}, 7)
    write_reports_csv(str(path), _reports(), prov, errors=[("bpic", "boom")])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# tool_version=")
    assert f"config_hash={prov['config_hash']}" in lines[0]
    header = lines[1].split(",")
    assert header == ["criterion", "value", "fit", "penalty", "n", "S",
                      "seed", "warnings", "notes"]
    assert "0.33333333333333331" in lines[3]
    assert lines[4].startswith("bpic,,,")


def test_config_hash_stable_and_sensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    c = config_hash({"x": 2, "y": [1, 2]})
    assert a == b
    assert a != c


def test_draws_file_bytes(tmp_path):
    # CRLF line ends, 17 significant digits, a signed zero and integer chain ids
    path = tmp_path / "draws.csv"
    mat = np.array([[0.1, -0.0], [1 / 3, 2.5e-300], [-7.0, 1e100]])
    write_draws_csv(str(path), PosteriorDraws(mat, np.array([0, 0, 12]), 0, 0))
    assert path.read_bytes() == (
        b"theta_1,theta_2,chain\r\n"
        b"0.10000000000000001,-0,0\r\n"
        b"0.33333333333333331,2.5e-300,0\r\n"
        b"-7,1e+100,12\r\n"
    )
