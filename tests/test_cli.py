"""Input documents, command dispatch, report rendering, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leafalg import cli, coinv, geom
from leafalg.cli import build_parser, load_input, main, render_report, run
from leafalg.errors import InputError
from leafalg.geom import Variety
from leafalg.poly import PolyRing, parse_poly

FERMAT = {
    "ring": {"vars": ["x", "y", "z"], "weights": [1, 1, 1]},
    "ideal": ["x^3 + y^3 + z^3"],
    "structure": {"kind": "jacobian"},
}

PLANE_XDXDY = {
    "ring": {"vars": ["x", "y"]},
    "ideal": [],
    "structure": {"kind": "bracket", "matrix": [["0", "x"], ["-x", "0"]]},
}

CONTACT3 = {
    "ring": {"vars": ["t", "x", "y"], "weights": [2, 1, 1]},
    "ideal": [],
    "structure": {
        "kind": "jacobi",
        "matrix": [["0", "0", "y"], ["0", "0", "-1"], ["-y", "1", "0"]],
        "u": ["1", "0", "0"],
    },
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def invoke(tmp_path, doc, *argv):
    parser = build_parser()
    path = write(tmp_path, "input.json", doc)
    flags = parser.parse_args([argv[0], "-i", path, *argv[1:]])
    loaded = load_input(path)
    payload = run(flags.command, loaded, flags)
    return loaded, payload, flags


def test_load_valid_document(tmp_path):
    doc = load_input(write(tmp_path, "fermat.json", FERMAT))
    assert doc.ring.variables == ("x", "y", "z")
    assert len(doc.ideal) == 1
    assert doc.warnings == []


def test_load_defaults_weights_with_warning(tmp_path):
    payload = {"ring": {"vars": ["x", "y"]}, "ideal": ["x^2 - y^3"]}
    doc = load_input(write(tmp_path, "noweights.json", payload))
    assert doc.ring.weights == (1, 1)
    assert any("weights" in w for w in doc.warnings)


def test_load_rejects_non_skew_bracket(tmp_path):
    bad = {
        "ring": {"vars": ["x", "y"]},
        "ideal": [],
        "structure": {"kind": "bracket", "matrix": [["0", "x"], ["x", "0"]]},
    }
    with pytest.raises(InputError, match="skew"):
        load_input(write(tmp_path, "bad.json", bad))


def test_load_rejects_bad_polynomial_with_path(tmp_path):
    bad = {"ring": {"vars": ["x"]}, "ideal": ["x +"]}
    with pytest.raises(InputError, match=r"ideal\[0\]"):
        load_input(write(tmp_path, "bad.json", bad))


def test_load_rejects_unknown_kind(tmp_path):
    bad = {"ring": {"vars": ["x"]}, "ideal": [], "structure": {"kind": "mystery"}}
    with pytest.raises(InputError, match="structure.kind"):
        load_input(write(tmp_path, "bad.json", bad))


def test_milnor_text(tmp_path):
    _, payload, _ = invoke(tmp_path, FERMAT, "milnor")
    assert payload["text"] == ["mu = 8"]


def test_milnor_computes_chain_colengths_once(tmp_path, monkeypatch):
    calls = []
    breakdown = geom.milnor_breakdown

    def counted(X, *args, **kwargs):
        calls.append(X)
        return breakdown(X, *args, **kwargs)

    monkeypatch.setattr(cli, "milnor_breakdown", counted)
    monkeypatch.setattr(geom, "milnor_breakdown", counted)
    quadrics = {
        "ring": {"vars": ["x", "y", "z", "w"], "weights": [1, 1, 1, 1]},
        "ideal": ["x^2 + y^2 + z^2", "x^2 + 2*y^2 + 3*z^2"],
    }
    _, payload, _ = invoke(tmp_path, quadrics, "milnor")
    assert payload["text"] == ["mu = infinite (chain ideal J_1 has infinite colength)"]
    assert len(calls) == 1


def test_bracket_text(tmp_path):
    _, payload, _ = invoke(tmp_path, FERMAT, "bracket", "-f", "x", "-g", "y")
    assert payload["text"] == ["3*z^2"]


def test_bracket_without_structure_is_the_jacobian_bracket(tmp_path):
    doc = {key: value for key, value in FERMAT.items() if key != "structure"}
    _, payload, _ = invoke(tmp_path, doc, "bracket", "-f", "x", "-g", "y")
    assert payload["text"] == ["3*z^2"]


@pytest.mark.parametrize("argv", [["bracket", "-f", "x", "-g", "y"], ["hamvec", "-f", "x"]])
def test_bracket_and_hamvec_refuse_a_vector_fields_structure(tmp_path, capsys, argv):
    doc = dict(FERMAT, structure={"kind": "vector-fields", "generators": [["y", "-x", "0"]]})
    path = write(tmp_path, "fields.json", doc)
    assert main([argv[0], "-i", path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error:") and "vector-fields" in captured.err


def test_tjurina_json_keeps_the_predicted_coinvariant_dimension(capsys):
    # a corpus curve with mu = 11 > tau = 10: the key carries mu
    path = str(Path(__file__).resolve().parents[1] / "bench" / "corpus" / "nqh_curve_5.json")
    assert main(["tjurina", "-i", path, "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["mu"] == 11 and result["tau"] == 10
    assert result["predicted_local_coinvariant_dim"] == result["mu"]


def test_leaves_fail_line(tmp_path):
    _, payload, _ = invoke(tmp_path, PLANE_XDXDY, "leaves")
    assert payload["text"][0] == "FAIL: stratum i=0 ideal (x) has dimension 1 > 0"


def test_leaves_pass(tmp_path):
    _, payload, _ = invoke(tmp_path, FERMAT, "leaves")
    assert payload["text"][0].startswith("PASS")


def test_contact_hamvec(tmp_path):
    _, payload, _ = invoke(tmp_path, CONTACT3, "hamvec", "-f", "y")
    assert payload["text"] == ["d_x"]
    _, payload, _ = invoke(tmp_path, CONTACT3, "hamvec", "-f", "1")
    assert payload["text"] == ["d_t"]


def test_json_report_round_trips(tmp_path):
    doc, payload, flags = invoke(tmp_path, FERMAT, "hp0", "--format", "json")
    rendered = render_report("hp0", doc, payload, "json")
    reparsed = json.loads(rendered)
    assert json.dumps(reparsed, indent=2, sort_keys=True) == rendered
    assert reparsed["command"] == "hp0"
    assert reparsed["result"]["series"]["total"] == 8
    assert reparsed["warnings"] == []


def test_commands_are_deterministic(tmp_path):
    for command, extra in [("gb", ()), ("strata", ()), ("coinv", ())]:
        _, first, _ = invoke(tmp_path, FERMAT, command, *extra)
        _, second, _ = invoke(tmp_path, FERMAT, command, *extra)
        assert first == second


def test_main_exit_codes(tmp_path, capsys):
    fermat = write(tmp_path, "fermat.json", FERMAT)
    assert main(["milnor", "-i", fermat]) == 0
    assert "mu = 8" in capsys.readouterr().out

    # mathematical-domain error: hp0 of an inhomogeneous ideal
    bad_math = write(
        tmp_path,
        "inhomogeneous.json",
        {"ring": {"vars": ["x", "y"]}, "ideal": ["x^3 + x^2*y + y^4"]},
    )
    assert main(["hp0", "-i", bad_math]) == 1
    assert "domain error" in capsys.readouterr().err

    # input error: missing file
    assert main(["milnor", "-i", str(tmp_path / "missing.json")]) == 2
    assert "input error" in capsys.readouterr().err

    # input error: malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["milnor", "-i", str(broken)]) == 2


def test_main_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    fermat = write(tmp_path, "fermat.json", FERMAT)
    pair = write(
        tmp_path,
        "pair.json",
        {"ring": {"vars": ["x", "y", "z"]}, "ideal": ["x^2 + y*z - 1", "x*y - z^2"]},
    )
    runs = [
        ["gb", "-i", pair, "--order", "lex"],
        ["gb", "-i", pair],
        ["coinv", "-i", fermat, "--max-degree", "2"],
        ["coinv", "-i", fermat],
        ["coinv", "-i", fermat, "--max-degree", "-5"],  # a flag error: exit 2
        ["milnor", "-i", fermat, "--format", "json"],
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    build_parser.cache_clear()
    shared = [outcome(argv) for argv in runs]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]


def test_load_rejects_boolean_weights(tmp_path):
    payload = {"ring": {"vars": ["x", "y"], "weights": [True, 1]}, "ideal": ["x^2 - y^3"]}
    with pytest.raises(InputError, match="ring.weights"):
        load_input(write(tmp_path, "boolweights.json", payload))


@pytest.mark.parametrize("value", ["abc", -1, True, 2.5])
def test_main_rejects_bad_max_degree_option(tmp_path, capsys, value):
    path = write(tmp_path, "options.json", dict(FERMAT, options={"max_degree": value}))
    assert main(["coinv", "-i", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: options.max_degree") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag",
    [("coinv", "--max-degree"), ("strata", "--bracket-depth")],
    ids=["--max-degree", "--bracket-depth"],
)
def test_main_rejects_negative_count_flags(tmp_path, capsys, command, flag):
    fermat = write(tmp_path, "fermat.json", FERMAT)
    assert main([command, "-i", fermat, flag, "-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: leafalg {command}: argument {flag}: ")
    assert "non-negative integer" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--margin", "5"],  # a flag gb does not read
        ["member"],
        ["hamvec"],
        ["bracket", "-f", "x"],
        ["strata", "--bracket-depth", "x"],
        ["mystery"],
        ["coinv", "--max-degree", "\u0663"],  # ARABIC-INDIC DIGIT THREE: int() reads 3
    ],
)
def test_main_reports_flag_errors_in_one_line(tmp_path, capsys, argv):
    fermat = write(tmp_path, "fermat.json", FERMAT)
    assert main([argv[0], "-i", fermat, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: leafalg") and captured.err.count("\n") == 1


def test_main_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["gb", "-h"])
    assert exited.value.code == 0
    assert "--order" in capsys.readouterr().out


def test_each_command_accepts_exactly_the_flags_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, (_, flags) in cli.COMMANDS.items():
        accepted = {opt for action in sub.choices[name]._actions for opt in action.option_strings}
        assert accepted == {"-h", "--help", "-i", "--input", "--format", "--order", *flags}, name


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["member", "-f", "x +"], "-f"),
        (["bracket", "-f", "x +", "-g", "y"], "-f"),
        (["bracket", "-f", "x", "-g", "x +"], "-g"),
    ],
)
def test_bad_polynomial_flag_is_named(tmp_path, capsys, argv, flag):
    fermat = write(tmp_path, "fermat.json", FERMAT)
    assert main([argv[0], "-i", fermat, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {flag}: expected a number") and err.count("\n") == 1


def test_sympower_reads_the_document_max_degree(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"], "weights": [3, 2]},
        "ideal": ["x^2 - y^3"],
        "structure": {"kind": "jacobian"},
        "options": {"max_degree": 1},
    }
    _, payload, _ = invoke(tmp_path, doc, "sympower")
    assert payload["result"]["truncation"] == 1
    assert sorted(payload["result"]["corrected"]) == ["0", "1"]
    _, payload, _ = invoke(tmp_path, doc, "hamgen")
    assert payload["result"]["max_degree"] == 1
    # the flag still wins over the document
    _, payload, _ = invoke(tmp_path, doc, "sympower", "--max-degree", "2")
    assert payload["result"]["truncation"] == 2


def test_readme_lists_the_flags_of_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|(.*)\|$", readme, re.MULTILINE)
    listed = {name: tuple(re.findall(r"`([^`]+)`", flags)) for name, flags in rows}
    assert listed == {name: flags for name, (_, flags) in cli.COMMANDS.items()}


def test_main_rejects_deep_nesting(tmp_path, capsys):
    doc = {"ring": {"vars": ["x"]}, "ideal": ["(" * 5000 + "x" + ")" * 5000]}
    assert main(["gb", "-i", write(tmp_path, "deep.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ideal[0]:") and err.count("\n") == 1


def test_main_reports_unexpected_errors_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("solver state\nis inconsistent")

    monkeypatch.setattr(cli, "run", broken)
    assert main(["milnor", "-i", write(tmp_path, "fermat.json", FERMAT)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: solver state is inconsistent\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_printing_a_number_longer_than_str_converts_is_a_domain_error(tmp_path, capsys, fmt):
    # each power has at most 4300 digits; their product has 5910
    fermat = write(tmp_path, "fermat.json", FERMAT)
    argv = ["member", "-i", fermat, "--format", fmt, "-f", "2^4000*3^4000*5^4000*x"]
    code, out, err = outcome(capsys, argv)
    assert (code, out, err) == (1, "", "domain error: cannot print a number longer than 4300 digits\n")


def test_member_command(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"]},
        "ideal": ["3*x^2 + 2*x*y", "x^2 + 4*y^3", "x^3 + x^2*y + y^4"],
    }
    _, payload, _ = invoke(tmp_path, doc, "member", "-f", "y^4")
    assert payload["result"]["member"] is True
    doc2 = {"ring": {"vars": ["x", "y"]}, "ideal": ["3*x^2 + 2*x*y", "x^2 + 4*y^3"]}
    _, payload2, _ = invoke(tmp_path, doc2, "member", "-f", "y^4")
    assert payload2["result"]["member"] is False


def test_derivations_zero_weight_cap(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y", "z", "t"], "weights": [1, 1, 1, 0]},
        "ideal": ["x^3 + y^3 + z^3 + t*x*y*z"],
    }
    _, payload, _ = invoke(
        tmp_path, doc, "derivations", "--max-degree", "0", "--zero-weight-cap", "1"
    )
    assert "0" in payload["result"]["fields_by_weight"]


def test_sympower_command(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"], "weights": [3, 2]},
        "ideal": ["x^2 - y^3"],
        "structure": {"kind": "jacobian"},
    }
    _, payload, _ = invoke(tmp_path, doc, "sympower", "--max-degree", "2")
    assert payload["result"]["uncorrected"]["1"] == {"0": 1, "2": 1}
    assert payload["result"]["corrected"]["1"] == {"-6": 1, "-4": 1}


def test_gap_command(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"], "weights": [3, 2]},
        "ideal": ["x^2 - y^3"],
    }
    _, payload, _ = invoke(tmp_path, doc, "gap")
    assert payload["text"] == ["mu - tau = 0"]
    assert payload["result"]["mu"] == 2 and payload["result"]["tau"] == 2


def test_sym2_brute_command(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"], "weights": [3, 2]},
        "ideal": ["x^2 - y^3"],
        "structure": {"kind": "jacobian"},
    }
    _, payload, _ = invoke(tmp_path, doc, "sym2-brute", "--max-degree", "4")
    assert payload["result"]["dimensions"] == {"0": 1, "1": 0, "2": 1, "3": 0, "4": 1}
    assert payload["result"]["conjectural_comparison"] is True


def test_exceptional_with_vector_fields_structure(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"], "weights": [3, 2]},
        "ideal": ["x^2 - y^3"],
        "structure": {
            "kind": "vector-fields",
            "generators": [["3*x", "2*y"], ["3*y^2", "2*x"]],
        },
    }
    _, payload, _ = invoke(tmp_path, doc, "exceptional")
    assert sorted(payload["result"]["ideal"]) == ["x", "y"]
    assert payload["result"]["quotient_dimension"] == 1


def test_every_vector_fields_command_refuses_a_field_not_tangent_to_the_variety(tmp_path, capsys):
    doc = {
        "ring": {"vars": ["x", "y"], "weights": [3, 2]},
        "ideal": ["x^2 - y^3"],
        "structure": {"kind": "vector-fields", "generators": [["1", "0"]]},
    }
    path = write(tmp_path, "cusp.json", doc)
    for command in ("strata", "leaves", "exceptional", "incompressible"):
        assert main([command, "-i", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: field d_x is not tangent to the variety\n"


def test_incompressible_violated_via_cli(tmp_path):
    doc = {
        "ring": {"vars": ["z"]},
        "ideal": [],
        "structure": {"kind": "vector-fields", "generators": [["1"], ["z"]]},
    }
    _, payload, _ = invoke(tmp_path, doc, "incompressible", "--max-degree", "2")
    assert payload["result"]["verdict"] == "violated"
    assert "witness" in payload["result"]


def test_hamvec_with_explicit_bracket(tmp_path):
    _, payload, _ = invoke(tmp_path, PLANE_XDXDY, "hamvec", "-f", "y")
    # {y, x} = -x, so xi_y = -x d_x
    assert payload["text"] == ["-x*d_x"]


def test_hamvec_prints_a_rational_bracket(tmp_path, capsys):
    # xi_f(x_i) = 2x pi[0][i]: the printer on rational coefficients
    doc = {
        "ring": {"vars": ["x", "y", "z"], "weights": [1, 1, 1]},
        "ideal": [],
        "structure": {
            "kind": "bracket",
            "matrix": [["0", "1/2*z", "-1/3*y"], ["-1/2*z", "0", "x"], ["1/3*y", "-x", "0"]],
        },
    }
    argv = ["hamvec", "-i", write(tmp_path, "rational.json", doc), "-f", "x^2"]
    assert outcome(capsys, argv) == (0, "x*z*d_y - 2/3*x*y*d_z\n", "")


def test_vector_fields_structure_strata(tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"]},
        "ideal": [],
        "structure": {"kind": "vector-fields", "generators": [["x", "y"], ["-y", "x"]]},
    }
    _, payload, _ = invoke(tmp_path, doc, "strata")
    ranks = {s["rank"]: s["dimension"] for s in payload["result"]["strata"]}
    assert ranks[0] == 0 and ranks[2] == 2


AFFINE_LINE = {
    "ring": {"vars": ["x"], "weights": [1]},
    "ideal": [],
    "structure": {"kind": "jacobian"},
}


def test_affine_line_hamiltonian_field_and_coinvariants(tmp_path, capsys):
    # no equations: the Jacobian pairing is the volume entry 1, so the one
    # field is d_x, and d_x maps onto k[x], leaving no coinvariants
    line = write(tmp_path, "line.json", AFFINE_LINE)
    assert main(["hamgen", "-i", line, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["fields"] == ["d_x"]
    assert main(["coinv", "-i", line, "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["total"] == 0 and set(result["dimensions"].values()) == {0}


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"

# (argv after the command and its input) of each command a structure steers
STRUCTURE_COMMANDS = {
    "hamgen": ["--max-degree", "2"],
    "coinv": ["--max-degree", "3"],
    "verify-hp0": ["--margin", "0"],
    "sym2-brute": ["--max-degree", "2"],
    "degenerate": [],
    "strata": [],
    "leaves": [],
    "bracket": ["-f", "x", "-g", "y"],
    "hamvec": ["-f", "x"],
}


def outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, name", [("sympower", "e8_curve"), ("sym2-brute", "fermat3")])
def test_the_coinvariant_series_is_computed_once_per_command(capsys, monkeypatch, command, name):
    # both series of sympower, and the default degree and the size guard
    # of sym2-brute, read the one series the variety keeps
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for fn in ("hp0_series", "poincare_series"):
        monkeypatch.setattr(geom, fn, counted(fn, getattr(geom, fn)))
    code, _, err = outcome(capsys, [command, "-i", str(CORPUS / f"{name}.json")])
    assert (code, err) == (0, "")
    assert sorted(calls) == ["hp0_series", "poincare_series"]


def test_a_failed_coinvariant_series_is_computed_once(tmp_path, capsys, monkeypatch):
    # the default degree catches the DomainError of a non-isolated germ,
    # and the size guard of sym2-brute raises the one the variety kept
    calls = []
    real = geom.poincare_series
    monkeypatch.setattr(geom, "poincare_series", lambda gb: calls.append(gb) or real(gb))
    path = write(tmp_path, "double_line.json", {"ring": {"vars": ["x", "y"]}, "ideal": ["x^2"]})
    message = "domain error: non-isolated singularity: the singularity ring is not finite-dimensional\n"
    assert outcome(capsys, ["sym2-brute", "-i", path]) == (1, "", message)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["fermat3", "e8_surface", "e8_curve", "a5_curve"])
def test_no_structure_is_the_jacobian_structure_for_every_command(tmp_path, capsys, name):
    committed = CORPUS / f"{name}.json"
    doc = json.loads(committed.read_text(encoding="utf-8"))
    assert doc.pop("structure") == {"kind": "jacobian"}
    bare = write(tmp_path, f"{name}.json", doc)
    for command, extra in STRUCTURE_COMMANDS.items():
        declared = outcome(capsys, [command, "-i", str(committed), *extra])
        assert outcome(capsys, [command, "-i", bare, *extra]) == declared, command


@pytest.mark.parametrize("command", ["coinv", "hamgen", "verify-hp0", "sym2-brute"])
def test_a_curve_refuses_the_hamiltonian_family_of_a_declared_structure(capsys, command):
    code, out, err = outcome(capsys, [command, "-i", str(CORPUS / "cusp_fields.json")])
    assert (code, out) == (1, "")
    assert err == "domain error: hamiltonian_family_top requires the Jacobian polyvector structure\n"


def test_coinv_of_a_zero_generator_is_the_ambient_ring(tmp_path, capsys):
    # the zero equation has no degree; its Jacobian row and every field vanish
    doc = dict(FERMAT, ideal=["0"])
    argv = ["coinv", "-i", write(tmp_path, "zero.json", doc), "--max-degree", "3"]
    code, out, err = outcome(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("coinvariants up to weight 3 [hamiltonian-top]: {0: 1, 1: 3, 2: 6, 3: 10}")


def test_hamgen_refuses_zero_weights_as_a_domain_error(tmp_path, capsys):
    doc = {"ring": {"vars": ["x", "y", "t"], "weights": [1, 1, 0]}, "ideal": ["x^2 + t*y^2"]}
    code, out, err = outcome(capsys, ["hamgen", "-i", write(tmp_path, "zero_weight.json", doc)])
    assert (code, out) == (1, "")
    assert err == "domain error: the Hamiltonian family needs strictly positive weights\n"


def test_sym2_brute_refuses_zero_weights_as_a_domain_error(tmp_path, capsys):
    # as hamgen and coinv do; sym2-brute has no --zero-weight-cap to ask for
    doc = {"ring": {"vars": ["x", "y", "t"], "weights": [1, 1, 0]}, "ideal": []}
    code, out, err = outcome(capsys, ["sym2-brute", "-i", write(tmp_path, "zero_weight.json", doc)])
    assert (code, out) == (1, "")
    assert err == "domain error: the Hamiltonian family needs strictly positive weights\n"


def test_the_empty_variety_has_no_vector_fields(tmp_path, capsys):
    path = write(tmp_path, "unit.json", {"ring": {"vars": ["x", "y", "z"]}, "ideal": ["1"]})
    code, out, _ = outcome(capsys, ["derivations", "-i", path, "--max-degree", "3", "--format", "json"])
    assert (code, json.loads(out)["result"]["fields_by_weight"]) == (0, {})
    argv = ["incompressible", "-i", path, "--max-degree", "3", "--zero-weight-cap", "1"]
    code, out, _ = outcome(capsys, argv)
    assert code == 0 and "verdict: consistent-to-3" in out


def _sweep_documents():
    """Small documents across dimensions 0-3, every structure kind and
    none, degenerate generators, a zero weight, and inputs that are not
    homogeneous or not isolated."""
    plane, xyz, xyzw = {"vars": ["x", "y"]}, {"vars": ["x", "y", "z"]}, {"vars": ["x", "y", "z", "w"]}
    cusp = {"vars": ["x", "y"], "weights": [3, 2]}
    jacobian = {"kind": "jacobian"}
    bracket = PLANE_XDXDY["structure"]

    def fields(*generators):
        return {"kind": "vector-fields", "generators": list(generators)}

    def doc(ring, ideal, structure=None):
        return {"ring": ring, "ideal": ideal} | ({"structure": structure} if structure else {})

    return {
        "point": doc(plane, ["x", "y"]),
        "point_bracket": doc(plane, ["x", "y"], bracket),
        "line": doc({"vars": ["x"]}, []),
        "line_fields": doc({"vars": ["x"]}, [], fields(["1"], ["x"])),
        "cusp": doc(cusp, ["x^2 - y^3"]),
        "cusp_jacobian": doc(cusp, ["x^2 - y^3"], jacobian),
        "cusp_fields": doc(cusp, ["x^2 - y^3"], fields(["3*x", "2*y"])),
        "cusp_bracket": doc(cusp, ["x^2 - y^3"], bracket),
        "plane": doc(plane, []),
        "plane_bracket": doc(plane, [], bracket),
        "fermat": doc(xyz, ["x^3 + y^3 + z^3"]),
        "contact": CONTACT3,
        "space_fields": doc(xyz, [], fields(["y", "-x", "0"], ["0", "z", "-y"])),
        "quadric_threefold": doc(xyzw, ["x^2 + y^2 + z^2 + w^2"]),
        "zero_surface": doc(xyz, ["0"], jacobian),
        "zero_curve": doc(plane, ["0"]),
        "constant": doc(xyz, ["1"]),
        "constant_curve": doc(plane, ["3"]),
        "duplicated": doc(xyz, ["x^2 + y^2 + z^2", "x^2 + y^2 + z^2"]),
        "zero_weight": doc({"vars": ["x", "y", "t"], "weights": [1, 1, 0]}, ["x^2 + t*y^2"]),
        "inhomogeneous": doc(plane, ["x^3 + x^2*y + y^4"]),
        "non_isolated": doc(xyz, ["x^2*y"]),
        "two_quadrics": doc(xyzw, ["x^2 + y^2 + z^2", "x^2 + 2*y^2 + 3*z^2"]),
    }


def test_no_command_ends_in_an_internal_error(tmp_path, capsys):
    # every command on every sweep document exits 0, 1 or 2, and a
    # refusal is one stderr line with nothing on stdout
    limits = {"--max-degree": "3", "--zero-weight-cap": "1"}
    arguments = {"-f": "x", "-g": "x^2"}
    runs = [[name] for name in cli.COMMANDS] + [["coinv", "--family", "derivations"]]
    failures = []
    for name, doc in _sweep_documents().items():
        path = write(tmp_path, f"{name}.json", doc)
        for run_argv in runs:
            command, *extra = run_argv
            flags = cli.COMMANDS[command][1]
            extra += [a for flag in flags if flag in arguments for a in (flag, arguments[flag])]
            extra += [a for flag in flags if flag in limits for a in (flag, limits[flag])]
            code, out, err = outcome(capsys, [command, "-i", path, *extra])
            if code not in (0, 1, 2) or (code and (out or err.count("\n") != 1)):
                failures.append((name, command, *extra, code, err))
    assert not failures


TWO_VARS = {"vars": ["x", "y"]}
EXPECTED_BASE = "expected a number, variable, or parenthesized expression"
LONG_LITERAL = "integer literal longer than 4300 digits"


@pytest.mark.parametrize(
    "doc, refusal",
    [
        ([], "$: top level must be an object"),
        ({"ideal": []}, "ring: required object with 'vars' and optional 'weights'"),
        ({"ring": {"vars": []}}, "ring.vars: required non-empty list of strings"),
        ({"ring": {"vars": ["x", "y"], "weights": [1]}}, "ring.weights: length must match ring.vars"),
        ({"ring": {"vars": ["x", "x"]}}, "ring: duplicate variable names in ('x', 'x')"),
        ({"ring": TWO_VARS, "ideal": "x"}, "ideal: expected a list of polynomial strings"),
        ({"ring": TWO_VARS, "ideal": [1]}, "ideal[0]: expected a polynomial string"),
        ({"ring": TWO_VARS, "structure": {}}, "structure: expected an object with a 'kind'"),
        (
            {"ring": TWO_VARS, "structure": {"kind": "bracket", "matrix": []}},
            "structure.matrix: expected a non-empty list of rows",
        ),
        (
            {"ring": TWO_VARS, "structure": {"kind": "bracket", "matrix": [["0", "x"]]}},
            "structure.matrix: expected 2 rows",
        ),
        (
            {"ring": TWO_VARS, "structure": {"kind": "bracket", "matrix": [["0"], ["0"]]}},
            "structure.matrix[0]: expected a list of 2 polynomial strings",
        ),
        (
            {"ring": TWO_VARS, "structure": {"kind": "jacobi", "matrix": [["0", "x"], ["-x", "0"]], "u": ["1"]}},
            "structure.u: expected 2 coefficient strings (one per variable)",
        ),
        (
            {"ring": TWO_VARS, "structure": {"kind": "jacobi", "matrix": [["x", "0"], ["0", "0"]], "u": ["1", "0"]}},
            "structure: bracket matrix must have zero diagonal",
        ),
        (
            {"ring": TWO_VARS, "structure": {"kind": "vector-fields", "generators": []}},
            "structure.generators: expected a non-empty list of coefficient lists",
        ),
        ({"ring": TWO_VARS, "options": []}, "options: expected an object"),
        # digits are ASCII; int() refuses "²" and "³" and reads "٣" as 3
        ({"ring": TWO_VARS, "ideal": ["x^\u00b2"]}, "ideal[0]: expected a non-negative integer (at position 2)"),
        *(
            ({"ring": TWO_VARS, "ideal": ["y", text]}, f"ideal[1]: {EXPECTED_BASE} (at position {at})")
            for text, at in (("\u00b2", 0), ("x + \u00b3*y", 4), ("\u0663*x", 0))
        ),
        # a literal longer than int() converts, as an exponent and as a coefficient
        ({"ring": TWO_VARS, "ideal": ["x^" + "9" * 4301]}, f"ideal[0]: {LONG_LITERAL} (at position 2)"),
        ({"ring": TWO_VARS, "ideal": ["x - 1/" + "7" * 4301]}, f"ideal[0]: {LONG_LITERAL} (at position 6)"),
        ({"ring": TWO_VARS, "ideal": [" " + "8" * 5000 + "*y"]}, f"ideal[0]: {LONG_LITERAL} (at position 1)"),
        # a JSON number longer than int() converts (raw JSON text)
        *(
            pytest.param(
                text,
                "{path}: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit",
                id=name,
            )
            for name, text in (
                ("long-weight", '{"ring": {"vars": ["x"], "weights": [%s]}}' % ("1" * 4301)),
                ("long-max-degree", '{"ring": {"vars": ["x"]}, "options": {"max_degree": %s}}' % ("2" * 4301)),
            )
        ),
        # nesting deeper than the JSON decoder recurses (raw JSON text)
        pytest.param(
            "[" * 100_000 + "]" * 100_000,
            "{path}: invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
            id="deep-nesting",
        ),
        # a key the kind does not read: a bracket with u is no Jacobi pair
        pytest.param(
            {
                "ring": {"vars": ["t", "x", "y"]},
                "structure": {
                    "kind": "bracket",
                    "matrix": [["0", "0", "y"], ["0", "0", "-1"], ["-y", "1", "0"]],
                    "u": ["1", "0", "0"],
                },
            },
            "structure.u: kind 'bracket' reads only kind, matrix",
            id="bracket-with-u",
        ),
        pytest.param(
            {"ring": TWO_VARS, "structure": {"kind": "jacobian", "matrix": [["0", "x"], ["-x", "0"]]}},
            "structure.matrix: kind 'jacobian' reads only kind",
            id="jacobian-with-matrix",
        ),
        # a misspelt key of any other object is refused the same way
        pytest.param(
            {"ring": {"vars": ["x", "y"], "weights": [1, 1]}, "ideals": ["x^2", "y^3"]},
            "ideals: a document reads only ring, ideal, structure, options",
            id="top-level-ideals",
        ),
        pytest.param(
            {"ring": {"vars": ["x", "y"], "weights": [1, 1], "weight": [2, 3]}, "ideal": ["x^2", "y^3"]},
            "ring.weight: a ring reads only vars, weights",
            id="ring-weight",
        ),
        pytest.param(
            {"ring": TWO_VARS, "ideal": ["x^2", "y^3"], "options": {"max_degre": 1}},
            "options.max_degre: an options object reads only max_degree",
            id="options-max-degre",
        ),
    ],
)
def test_main_refuses_a_malformed_document_in_one_line(tmp_path, capsys, doc, refusal):
    # each refusal names the JSON path of the fault; a str is the raw document
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    code, out, err = outcome(capsys, ["gb", "-i", str(path)])
    assert (code, out, err) == (2, "", f"input error: {refusal.format(path=path)}\n")


@pytest.mark.parametrize("command", ["derivations", "exceptional", "incompressible"])
def test_the_zero_weight_refusal_names_the_flag(tmp_path, capsys, command):
    doc = {"ring": {"vars": ["x", "y", "t"], "weights": [1, 1, 0]}, "ideal": []}
    code, out, err = outcome(capsys, [command, "-i", write(tmp_path, "zero_weight.json", doc)])
    assert (code, out) == (2, "")
    assert err == "input error: ring has zero-weight variables: pass --zero-weight-cap\n"


def test_verify_hp0_reports_each_mismatch(tmp_path, capsys, monkeypatch):
    # the closed form of the quadric surface (1 at weight 0 only) against
    # the Fermat cubic's oracle (1, 3, 3 through weight 2)
    xyz = PolyRing(["x", "y", "z"])
    quadric = Variety(xyz, [parse_poly("x^2 + y^2 + z^2", xyz)])
    monkeypatch.setattr(coinv, "hp0_series", lambda X: geom.hp0_series(quadric))
    path = write(tmp_path, "fermat.json", FERMAT)
    code, out, err = outcome(capsys, ["verify-hp0", "-i", path])
    assert (code, err) == (0, "")
    assert out == (
        "mismatch at weight 1: oracle 3, closed form 0; mismatch at weight 2: oracle 3, closed form 0\n"
    )
    code, out, _ = outcome(capsys, ["verify-hp0", "-i", path, "--format", "json"])
    result = json.loads(out)["result"]
    assert code == 0 and result["match"] is False
    assert result["mismatches"] == [
        {"weight": 1, "oracle": 3, "closed_form": 0},
        {"weight": 2, "oracle": 3, "closed_form": 0},
    ]


def test_exceptional_json_reports_an_infinite_quotient(tmp_path, capsys):
    doc = {"ring": TWO_VARS, "ideal": [], "structure": {"kind": "vector-fields", "generators": [["x", "0"]]}}
    path = write(tmp_path, "line_field.json", doc)
    code, out, _ = outcome(capsys, ["exceptional", "-i", path, "--format", "json"])
    result = json.loads(out)["result"]
    assert code == 0 and result["ideal"] == ["x"]
    assert result["quotient_dimension"] == "infinite"
    series = result["quotient_series"]
    assert series["display"] == "(1) / (1-u)" and series["finite"] is False
    assert (series["numerator"], series["denominator_weights"]) == ({"0": 1}, [1])


def test_a_zero_field_gives_the_single_rank_zero_stratum(tmp_path, capsys):
    doc = {"ring": TWO_VARS, "ideal": [], "structure": {"kind": "vector-fields", "generators": [["0", "0"]]}}
    path = write(tmp_path, "zero_field.json", doc)
    warning = "warning: ring.weights missing: defaulted to all 1\n"
    assert outcome(capsys, ["strata", "-i", path]) == (0, warning + "rank <= 0: ideal (0), dimension 2\n", "")
    fail = "FAIL: stratum i=0 ideal (0) has dimension 2 > 0\n"
    assert outcome(capsys, ["leaves", "-i", path]) == (0, warning + fail, "")
    code, out, _ = outcome(capsys, ["leaves", "-i", path, "--format", "json"])
    result = json.loads(out)["result"]
    stratum = {"rank": 0, "ideal": [], "dimension": 2}
    assert (code, result["passed"], result["strata"], result["witness"]) == (0, False, [stratum], stratum)


def test_importing_the_cli_loads_only_the_modules_it_runs():
    """Every invocation pays for the package's imports: ``import
    leafalg.cli`` in a fresh interpreter must not pull in ``dataclasses``
    or ``typing`` and what they drag along.  Without ``site`` (``-S``) the
    modules added are the package's own."""
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import leafalg.cli; print(*sorted(set(sys.modules) - before))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "leafalg.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}, sorted(added)


def _gb_exit_and_stderr(stdout, setup=None):
    """Exit code and stderr of ``leafalg gb`` on cyclic-4 in a fresh
    interpreter whose stdout is ``stdout``; ``setup``, when given, is
    Python source run before ``cli.main``."""
    src = Path(cli.__file__).resolve().parents[1]
    args = ["gb", "-i", str(CORPUS / "cyclic4.json")]
    if setup is None:
        argv = [sys.executable, "-m", "leafalg.cli", *args]
    else:
        argv = [sys.executable, "-c", f"{setup}\nfrom leafalg import cli\nsys.exit(cli.main({args!r}))"]
    done = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=src)
    return done.returncode, done.stderr


def _closed_pipe_exit_and_stderr(setup=None):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _gb_exit_and_stderr(write_end, setup)
    finally:
        os.close(write_end)


def test_a_closed_stdout_is_an_internal_error_in_one_line():
    code, err = _closed_pipe_exit_and_stderr()
    assert (code, err.count("\n")) == (3, 1), err
    assert err.startswith("internal error: BrokenPipeError: ")


def test_a_closed_stdout_that_keeps_its_buffer_is_one_line_too():
    # the pure-Python io keeps the unwritten report after the failed flush,
    # so that the flush at exit would fail again unless stdout is redirected
    setup = (
        "import _pyio, sys\n"
        "sys.stdout = _pyio.TextIOWrapper(_pyio.BufferedWriter(_pyio.FileIO(1, 'w', closefd=False)))"
    )
    code, err = _closed_pipe_exit_and_stderr(setup)
    assert (code, err.count("\n")) == (3, 1), err
    assert err.startswith("internal error: BrokenPipeError: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_is_an_internal_error_in_one_line():
    with open("/dev/full", "w") as full:
        code, err = _gb_exit_and_stderr(full)
    assert (code, err.count("\n")) == (3, 1), err
    assert err.startswith("internal error: OSError: ")
