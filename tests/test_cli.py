import json
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from payloads import assert_payload_close
from reidtai.cli import main

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "reidtai.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
        timeout=timeout,
    )


class TestBasics:
    def test_age(self, capsys):
        assert main(["--format", "json", "age", "--spectrum", "1/6,1/3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"schema": 1, "spectrum": ["1/6", "1/3"], "age": "1/2", "exceptional": True}

    def test_rt_check(self, capsys):
        code = main(["--format", "json", "rt-check", "--spectrum", "1/2,1/2", "--spectrum", "1/2,0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfies_rt"] is False

    def test_table1_row_count(self, capsys):
        assert main(["--format", "json", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 11
        assert payload["schema"] == 1

    def test_same_order_screen(self, capsys):
        assert main(["--format", "json", "same-order-screen", "--n", "10", "--dim", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_age"] == "4/5" and payload["exceptional"] is True


class TestConformanceExit:
    def test_orders_scan_strict_exit(self, capsys):
        assert main(["orders-scan", "--bound", "372"]) == 0
        capsys.readouterr()
        assert main(["orders-scan", "--bound", "372", "--strict-conformance"]) == 1
        capsys.readouterr()
        # flag position before the subcommand works too
        assert main(["--strict-conformance", "orders-scan", "--bound", "372"]) == 1
        capsys.readouterr()

    def test_pair_search_strict_exit(self, capsys):
        assert main(["pair-search", "--f-max", "12", "--mode", "value-union", "--strict-conformance"]) == 1
        capsys.readouterr()


class TestArgparseExit:
    """main returns argparse's exit code instead of raising SystemExit."""

    @pytest.mark.parametrize("argv", [["age"], ["orders-scan", "--bound", "x"]])
    def test_malformed_vector_returns_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: reidtai")

    def test_module_exit_code_and_stderr_unchanged(self):
        result = run_cli("orders-scan", "--bound", "x")
        assert result.returncode == 2
        assert result.stderr.endswith("error: argument --bound: invalid int value: 'x'\n")


class TestTorusCommands:
    @pytest.fixture()
    def kummer_file(self, tmp_path):
        path = tmp_path / "kummer2.json"
        path.write_text(json.dumps({
            "rank": 2,
            "generators": [{"matrix": [[-1, 0], [0, -1]], "translation": ["0", "0"]}],
        }))
        return str(path)

    def test_av_verdict(self, kummer_file, capsys):
        assert main(["av-verdict", kummer_file]) == 0
        assert capsys.readouterr().out.strip() == "KodairaZero"

    def test_filtration_json(self, kummer_file, capsys):
        assert main(["--format", "json", "filtration", kummer_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "KodairaZero"
        assert payload["schema"] == 1

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rank": 2, ')
        assert main(["av-verdict", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["av-verdict", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("entry", [-1.5, True], ids=["float", "bool"])
    def test_non_integer_matrix_entry_exit_2(self, entry, tmp_path, capsys):
        # mat() alone would read -1.5 as -1 and true as 1
        bad = tmp_path / "bad_entry.json"
        bad.write_text(json.dumps({
            "rank": 1,
            "generators": [{"matrix": [[entry]], "translation": ["1/2"]}],
        }))
        for command in ("filtration", "av-verdict"):
            assert main([command, str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input file")

    @pytest.mark.parametrize("rank", [1.0, True], ids=["float", "bool"])
    def test_non_integer_rank_exit_2(self, rank, tmp_path, capsys):
        # 1.0 and true compare equal to the generator rank 1
        bad = tmp_path / "bad_rank.json"
        bad.write_text(json.dumps({
            "rank": rank,
            "generators": [{"matrix": [[-1]], "translation": ["1/2"]}],
        }))
        for command in ("filtration", "av-verdict"):
            assert main([command, str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input file")

    @pytest.mark.parametrize("entry", [0.1, True], ids=["float", "bool"])
    def test_non_exact_translation_entry_exit_2(self, entry, tmp_path, capsys):
        # Fraction() alone would read 0.1 as 3602879701896397/36028797018963968 and true as 1
        bad = tmp_path / "bad_translation.json"
        bad.write_text(json.dumps({
            "rank": 1,
            "generators": [{"matrix": [[-1]], "translation": [entry]}],
        }))
        for command in ("filtration", "av-verdict"):
            assert main([command, str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input file")

    @pytest.mark.parametrize("translation", ["12", {"1": 0, "2": 0}], ids=["string", "object"])
    def test_translation_not_a_list_exit_2(self, translation, tmp_path, capsys):
        # iterating it would read "12" as the entries "1", "2" and the object as its keys
        bad = tmp_path / "bad_translation.json"
        bad.write_text(json.dumps({
            "rank": 2,
            "generators": [{"matrix": [[-1, 0], [0, -1]], "translation": translation}],
        }))
        for command in ("filtration", "av-verdict"):
            assert main([command, str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input file")

    def test_zero_denominator_translation_exit_2(self, tmp_path, capsys):
        # Fraction("1/0") raises ZeroDivisionError, not ValueError
        bad = tmp_path / "bad_translation.json"
        bad.write_text(json.dumps({
            "rank": 1,
            "generators": [{"matrix": [[-1]], "translation": ["1/0"]}],
        }))
        for command in ("filtration", "av-verdict"):
            assert main([command, str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad input file")

    def test_integer_and_string_translations_read_exactly(self, tmp_path, capsys):
        outputs = []
        for translation in ([1, 0], ["0", "0"], ["1/2", "0"], ["0.5", 0]):
            path = tmp_path / "in.json"
            path.write_text(json.dumps({
                "rank": 2,
                "generators": [{"matrix": [[0, -1], [1, 0]], "translation": translation}],
            }))
            assert main(["--format", "json", "filtration", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[2] == outputs[3]

    def test_infinite_order_generator_exit_2(self, tmp_path):
        bad = tmp_path / "bad_gen.json"
        bad.write_text(json.dumps({
            "rank": 2,
            "generators": [{"matrix": [[1, 1], [0, 1]], "translation": ["0", "0"]}],
        }))
        assert main(["av-verdict", str(bad)]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            # a 3-cycle with translation 1/1000000007 has order 3 * 1000000007
            {"rank": 3, "generators": [
                {"matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "translation": ["1/1000000007", "0", "0"]}]},
            # two generators of orders 1009 and 1013, each below the cap; their lcm 1022117 divides the group order
            {"rank": 2, "generators": [
                {"matrix": [[1, 0], [0, 1]], "translation": ["1/1009", "0"]},
                {"matrix": [[1, 0], [0, 1]], "translation": ["0", "1/1013"]}]},
            # two generators of order 1009 whose translations generate 1009^2 elements
            {"rank": 2, "generators": [
                {"matrix": [[1, 0], [0, 1]], "translation": ["1/1009", "0"]},
                {"matrix": [[1, 0], [0, 1]], "translation": ["0", "1/1009"]}]},
            # two involutions whose product has infinite order: an infinite group of finite-order generators
            {"rank": 2, "generators": [
                {"matrix": [[-1, 0], [0, 1]], "translation": ["0", "0"]},
                {"matrix": [[1, 0], [1, -1]], "translation": ["0", "0"]}]},
        ],
        ids=["one-generator", "lcm-of-two", "translations-of-two", "infinite-of-two-involutions"],
    )
    def test_generator_orders_above_cap_exit_2_at_once(self, payload, tmp_path):
        # closing either group would compose a million elements before the cap stops it
        bad = tmp_path / "runaway.json"
        bad.write_text(json.dumps(payload))
        result = run_cli("filtration", str(bad), timeout=10)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: bad input file {bad}: group too large or infinite: cap 1000000 exceeded\n"


@pytest.mark.parametrize(
    "command", [["filtration"], ["av-verdict"], ["verify-witness"], ["deviation", "--matrix"]],
    ids=["filtration", "av-verdict", "verify-witness", "deviation-matrix"],
)
def test_deeply_nested_json_exit_2(command, tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, on nesting this deep
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    result = run_cli(*command, str(deep))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: malformed JSON in ") and "Traceback" not in result.stderr


class TestWitnessRoundTrip:
    def test_pair_witnesses_verify(self, tmp_path, capsys):
        assert main(["--format", "json", "pair-search", "--f-max", "12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        extras = payload["conformance"]["extra"]
        assert extras
        for entry in extras[:3]:
            wfile = tmp_path / "w.json"
            wfile.write_text(json.dumps(entry["witness"]))
            assert main(["verify-witness", str(wfile)]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("mode", ["value-union", "orbit-sets"])
    def test_pair_witnesses_verify_at_published_bound(self, mode, tmp_path, capsys):
        assert main(["--format", "json", "pair-search", "--f-max", "126", "--mode", mode]) == 0
        payload = json.loads(capsys.readouterr().out)
        witnesses = payload["pairs"] + [entry["witness"] for entry in payload["conformance"]["extra"]]
        assert payload["conformance"]["extra"]
        wfile = tmp_path / "w.json"
        for witness in witnesses:
            wfile.write_text(json.dumps(witness))
            assert main(["verify-witness", str(wfile)]) == 0, witness["pair"]
            assert capsys.readouterr().out.startswith("verified: ")

    def test_order_witness_verifies(self, tmp_path, capsys):
        assert main(["--format", "json", "orders-scan", "--bound", "30"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["conformance"]["extra"][0]
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(entry["witness"]))
        assert main(["verify-witness", str(wfile)]) == 0

    def test_tampered_witness_fails(self, tmp_path, capsys):
        assert main(["--format", "json", "orders-scan", "--bound", "30"]) == 0
        payload = json.loads(capsys.readouterr().out)
        witness = payload["conformance"]["extra"][0]["witness"]
        witness["sum"] = "1/2"
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(witness))
        assert main(["verify-witness", str(wfile)]) == 1

    def test_unknown_kind_exit_2(self, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"kind": "nonsense"}))
        assert main(["verify-witness", str(wfile)]) == 2

    @pytest.mark.parametrize("payload", [[1, 2], "x", 3])
    def test_non_object_payload_exit_2(self, payload, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(payload))
        assert main(["verify-witness", str(wfile)]) == 2
        assert capsys.readouterr().err.startswith("error: bad witness payload")

    @pytest.mark.parametrize(
        "witness",
        [
            {"kind": "order", "d": 11, "representatives": [1, 2, 3, 4, 5, -14], "sum": "1/11"},
            {
                "kind": "pair-value-union",
                "pair": ["1/6", "1/3"],
                "sigma": {"modulus": 6, "chosen_residues": [1, 2]},
                "values": ["1/6", "1/3", "2/3"],
                "minimal_sum": "7/6",
                "feasible": False,
            },
            {"kind": "multiset", "values": ["5/3", "7/3"], "sum": "4"},
            {"kind": "multiset", "values": ["1/4", "1/4"], "sum": "1/2"},
            {"kind": "multiset", "values": ["1/2", "1/3", "1/4"], "sum": "13/12"},
        ],
        ids=["order-non-unit", "pair-non-unit", "multiset-unreduced", "multiset-one-value", "multiset-sum"],
    )
    def test_forged_witness_fails(self, witness, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(witness))
        assert main(["verify-witness", str(wfile)]) == 1
        assert capsys.readouterr().out.startswith("FAILED: ")

    @pytest.mark.parametrize("mode", ["value-union", "orbit-sets"])
    def test_every_multiset_witness_verifies(self, mode, tmp_path, capsys):
        assert main(["--format", "json", "multisets", "--f-max", "12", "--mode", mode]) == 0
        extras = json.loads(capsys.readouterr().out)["conformance"]["extra"]
        assert extras
        wfile = tmp_path / "w.json"
        for entry in extras:
            wfile.write_text(json.dumps(entry["witness"]))
            assert main(["verify-witness", str(wfile)]) == 0, entry["item"]
            capsys.readouterr()

    def test_refuted_multiset_fails_as_witness(self, tmp_path, capsys):
        # a refuted candidate has an orbit total >= 1, so it proves nothing
        assert main(["--format", "json", "multisets", "--f-max", "12", "--mode", "orbit-sets"]) == 0
        refuted = json.loads(capsys.readouterr().out)["refutations"][0]
        values = [Fraction(v) for v in refuted["multiset"]]
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({
            "kind": "multiset",
            "values": refuted["multiset"],
            "sum": str(sum(values, Fraction(0))),
            "orbit_total": refuted["orbit_total"],
        }))
        assert main(["verify-witness", str(wfile)]) == 1
        assert capsys.readouterr().out.startswith("FAILED: ")

    def test_multiset_witnesses_verify(self, tmp_path, capsys):
        assert main(["--format", "json", "multisets", "--mode", "orbit-sets"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["refutations"]  # excluded candidates ship their totals
        entry = payload["conformance"]["extra"][0]
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(entry["witness"]))
        assert main(["verify-witness", str(wfile)]) == 0

    @pytest.mark.parametrize(
        "command",
        [("pair-search", "--f-max", "12", "--mode", "orbit-sets"), ("multisets", "--f-max", "12", "--mode", "orbit-sets")],
        ids=["pair-orbit-sets", "multiset-orbit-total"],
    )
    def test_orbit_witness_checked_independently(self, command, tmp_path, monkeypatch, capsys):
        # The verifier must not trust the routine that made the witness: a
        # search whose orbit totals are all off by 1/M emits witnesses that fail.
        # The pair search reads both the integer total and the lifted result,
        # the multiset search only the integer total, so both are shifted.
        import reidtai.search as search

        original = search.av_orbit_feasibility
        original_total = search._orbit_total

        def off_by_one_step(values):
            result = original(values)
            total = result.total + Fraction(1, result.modulus)
            return search.AvOrbitResult(total, 0 < total < 1, result.classes, result.modulus)

        monkeypatch.setattr(search, "av_orbit_feasibility", off_by_one_step)
        monkeypatch.setattr(search, "_orbit_total", lambda scaled, modulus: original_total(scaled, modulus) + 1)
        assert main(["--format", "json", *command]) == 0
        payload = json.loads(capsys.readouterr().out)
        witnesses = payload.get("pairs", []) + [entry["witness"] for entry in payload["conformance"]["extra"]]
        assert witnesses
        wfile = tmp_path / "w.json"
        for witness in witnesses:
            wfile.write_text(json.dumps(witness))
            assert main(["verify-witness", str(wfile)]) == 1, witness
            assert capsys.readouterr().out.startswith("FAILED: orbit total mismatch")

    @pytest.mark.parametrize(
        "witness",
        [
            {"kind": "order", "d": 10**9 + 7, "representatives": [1], "sum": "1/1000000007"},
            {"kind": "order", "d": 10**9 + 7, "representatives": [], "sum": "0"},
            {
                "kind": "pair-value-union",
                "pair": ["1/1000000007", "2/1000000007"],
                "sigma": {"modulus": 10**9 + 7, "chosen_residues": [1]},
                "values": ["1/1000000007", "2/1000000007"],
                "minimal_sum": "3/1000000007",
                "feasible": True,
            },
            {"kind": "order", "d": 10**18 + 9, "representatives": [1], "sum": "1/1000000000000000009"},
            {
                "kind": "pair-orbit-sets",
                "pair": ["1/200003", "2/200003"],
                "minimal_sum": "1/2",
                "feasible": True,
                "orbit": {"total": "1/2", "feasible": True, "modulus": 200003, "classes": []},
            },
            {"kind": "multiset", "values": ["1/200003", "2/200003"], "sum": "3/200003", "orbit_total": "1/2"},
        ],
        ids=["order", "order-no-residue", "pair-value-union", "order-prime-near-1e18", "pair-orbit-sets",
             "multiset-orbit-total"],
    )
    def test_few_residues_fail_without_listing_the_units(self, witness, tmp_path):
        # One residue cannot cover the 5 * 10^8 conjugate pairs of units mod 10^9 + 7 (and 10^18 + 9 is
        # prime, so no factoring of d); the orbit checks stop at the twists or total the witness claims.
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(witness))
        result = subprocess.run(
            [sys.executable, "-m", "reidtai.cli", "verify-witness", str(wfile)],
            capture_output=True, text=True, cwd=REPO, timeout=10,
        )
        assert result.returncode == 1, result.stderr
        assert result.stdout.startswith("FAILED: ")

    @pytest.mark.parametrize("d", [1, 0, -5, 2.0, 7.5, "7", None])
    def test_order_witness_bad_modulus_exit_2(self, d, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"kind": "order", "d": d, "representatives": [], "sum": "0"}))
        assert main(["verify-witness", str(wfile)]) == 2
        assert capsys.readouterr().err.startswith("error: bad witness payload")

    def test_conjugate_pair_search_terminates(self, tmp_path):
        # {1/59, 58/59}: sides u and -u of each of the 29 conjugate pairs of
        # units give one value set; searching both sides would walk 2^29 leaves.
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(REPO / 'tests')!r})\n"
            "from search_oracles import pair_feasible\n"
            "print(json.dumps(pair_feasible(1, 58, 59).to_json()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO, timeout=10
        )
        assert result.returncode == 0, result.stderr
        witness = json.loads(result.stdout)
        assert witness["minimal_sum"] == "29" and witness["feasible"] is False
        wfile = tmp_path / "w.json"
        wfile.write_text(result.stdout)
        verified = run_cli("verify-witness", str(wfile))
        assert verified.returncode == 0
        assert verified.stdout.startswith("verified: ")

    def test_orbit_pair_witness_verifies(self, tmp_path, capsys):
        assert main(["--format", "json", "pair-search", "--f-max", "12", "--mode", "orbit-sets"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["conformance"]["extra"][0]
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(entry["witness"]))
        assert main(["verify-witness", str(wfile)]) == 0


def _emitted_witnesses():
    from reidtai.orders import feasible_orders
    from reidtai.search import MODE_ORBIT_SETS, MODE_VALUE_UNION, classify_pairs, enumerate_exceptional_multisets

    witnesses = [w for _, w in feasible_orders(372)[1].extras]
    for mode in (MODE_VALUE_UNION, MODE_ORBIT_SETS):
        witnesses += [c.to_json() for c in classify_pairs(126, mode)[0]]
        witnesses += [w for _, w in enumerate_exceptional_multisets(mode).conformance.extras]
    return witnesses


def _witness_mutations(witness):
    """Every single-field mutation of a witness that must stop it verifying."""
    if "feasible" in witness:
        yield "flip feasible", {**witness, "feasible": not witness["feasible"]}
    for key in ("sum", "minimal_sum", "orbit_total"):
        if key in witness:
            yield f"{key} + 1/1000", {**witness, key: str(Fraction(witness[key]) + Fraction(1, 1000))}
    for key in ("representatives", "values"):
        if key in witness:
            yield f"drop last of {key}", {**witness, key: witness[key][:-1]}
    if "sigma" in witness:
        sigma = {**witness["sigma"], "chosen_residues": witness["sigma"]["chosen_residues"][:-1]}
        yield "drop last chosen residue", {**witness, "sigma": sigma}
    if "orbit" in witness:
        orbit = witness["orbit"]
        first = {**orbit["classes"][0], "min_age": str(Fraction(orbit["classes"][0]["min_age"]) + Fraction(1, 1000))}
        for name, changed in (
            ("orbit total + 1/1000", {"total": str(Fraction(orbit["total"]) + Fraction(1, 1000))}),
            ("flip orbit feasible", {"feasible": not orbit["feasible"]}),
            ("orbit modulus + 1", {"modulus": orbit["modulus"] + 1}),
            ("orbit classes emptied", {"classes": []}),
            ("first orbit class min_age + 1/1000", {"classes": [first] + orbit["classes"][1:]}),
        ):
            yield name, {**witness, "orbit": {**orbit, **changed}}
    yield "unknown kind", {**witness, "kind": "nonsense"}


class TestEmittedWitnesses:
    @pytest.fixture(scope="class")
    def witnesses(self):
        return _emitted_witnesses()

    def test_every_emitted_witness_verifies(self, witnesses, tmp_path, capsys):
        assert len(witnesses) == 117
        wfile = tmp_path / "w.json"
        for witness in witnesses:
            wfile.write_text(json.dumps(witness))
            assert main(["verify-witness", str(wfile)]) == 0, witness
            assert capsys.readouterr().out.startswith("verified: ")

    def test_every_mutation_is_rejected(self, witnesses, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        count = 0
        for witness in witnesses:
            for name, mutated in _witness_mutations(witness):
                wfile.write_text(json.dumps(mutated))
                code = main(["verify-witness", str(wfile)])
                out = capsys.readouterr().out
                assert code == 2 or (code == 1 and out.startswith("FAILED: ")), (name, witness)
                count += 1
        assert count == 503


# The galois-search commands of the benchmark and the stdout snapshots they must reproduce.
GALOIS_SNAPSHOTS = {
    "orders-scan-372": ("orders-scan", "--bound", "372"),
    "pair-search-126-value-union": ("pair-search", "--f-max", "126", "--mode", "value-union"),
    "pair-search-126-orbit-sets": ("pair-search", "--f-max", "126", "--mode", "orbit-sets"),
    "multisets-orbit-sets": ("multisets", "--mode", "orbit-sets"),
}

# The monomial-scan commands of the benchmark, G(m, p, n) by snapshot name.
MONOMIAL_SNAPSHOTS = {
    f"monomial-check-{m}-{p}-{n}": ("monomial-check", "--m", str(m), "--p", str(p), "--n", str(n))
    for m, p, n in ((6, 1, 3), (5, 1, 3), (6, 2, 3), (3, 1, 4), (4, 1, 4), (6, 6, 4), (5, 5, 4), (6, 3, 4))
}
MONOMIAL_SNAPSHOTS["monomial-check-1-1-6-reflection-rep"] = (
    "monomial-check", "--m", "1", "--p", "1", "--n", "6", "--reflection-rep",
)

# monomial-check outside the benchmark, by its tests/snapshots name: format and arguments.
MONOMIAL_TEST_SNAPSHOTS = {
    "monomial-check-2-1-3-json": ("json", ("--m", "2", "--p", "1", "--n", "3")),
    "monomial-check-2-1-3-table": ("table", ("--m", "2", "--p", "1", "--n", "3")),
    "monomial-check-6-1-4-json": ("json", ("--m", "6", "--p", "1", "--n", "4")),
    "monomial-check-1-1-4-reflection-rep-table": ("table", ("--m", "1", "--p", "1", "--n", "4", "--reflection-rep")),
}

# The other reports, by tests/snapshots name: format and arguments.
COMMAND_SNAPSHOTS = {
    "table1-json": ("json", ("table1",)),
    "age-json": ("json", ("age", "--spectrum", "1/6,1/3")),
    "rt-check-json": ("json", ("rt-check", "--spectrum", "1/2,1/2", "--spectrum", "1/2,0")),
    "same-order-screen-10-4-json": ("json", ("same-order-screen", "--n", "10", "--dim", "4")),
    "simple-av-screen-4-json": ("json", ("simple-av-screen", "--dim", "4")),
    "simple-av-screen-4-table": ("table", ("simple-av-screen", "--dim", "4")),
    "imprimitive-cases-json": ("json", ("imprimitive-cases",)),
}

# JSON reports that carry floats, by tests/snapshots name: the parsed payload is pinned, floats to 1e-12.
FLOAT_SNAPSHOTS = {
    "deviation-spectrum-json": ("deviation", "--spectrum", "1/6,1/3"),
    "deviation-matrix-rotation3-json": (
        "deviation", "--matrix", str(REPO / "tests" / "inputs" / "deviation" / "rotation3.json"),
    ),
    "extraspecial-scan-32-json": ("extraspecial-scan", "--max-dim", "32"),
}

TORUS_INPUTS = sorted((REPO / "demos" / "inputs").glob("*.json"))
# The sixteen `bench/torusgen.py` seed-1 inputs: six whose filtration reaches a quotient stage, and the
# signed-permutation, Kummer and cycle inputs, which have the largest linear images and translation groups.
TORUSGEN_INPUTS = sorted((REPO / "tests" / "inputs").glob("*.json"))


class TestSnapshots:
    @pytest.mark.parametrize("name", sorted(GALOIS_SNAPSHOTS))
    def test_stdout_byte_identical(self, name, capsys):
        assert main(["--format", "json", "--threads", "1", *GALOIS_SNAPSHOTS[name]]) == 0
        expected = (REPO / "bench" / "snapshots" / f"{name}.out").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("name", sorted(MONOMIAL_SNAPSHOTS))
    def test_monomial_stdout_byte_identical(self, name, capsys):
        assert main(["--format", "json", "--threads", "1", *MONOMIAL_SNAPSHOTS[name]]) == 0
        expected = (REPO / "bench" / "snapshots" / f"{name}.out").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("name", sorted(MONOMIAL_TEST_SNAPSHOTS))
    def test_monomial_check_byte_identical(self, name, capsys):
        fmt, args = MONOMIAL_TEST_SNAPSHOTS[name]
        assert main(["--format", fmt, "monomial-check", *args]) == 0
        expected = (REPO / "tests" / "snapshots" / f"{name}.out").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("name", sorted(COMMAND_SNAPSHOTS))
    def test_command_byte_identical(self, name, capsys):
        fmt, args = COMMAND_SNAPSHOTS[name]
        assert main(["--format", fmt, *args]) == 0
        expected = (REPO / "tests" / "snapshots" / f"{name}.out").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("name", sorted(FLOAT_SNAPSHOTS))
    def test_float_payload_matches(self, name, capsys):
        assert main(["--format", "json", *FLOAT_SNAPSHOTS[name]]) == 0
        expected = json.loads((REPO / "tests" / "snapshots" / f"{name}.out").read_text())
        assert_payload_close(json.loads(capsys.readouterr().out), expected)

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("command", ["filtration", "av-verdict"])
    @pytest.mark.parametrize("path", TORUS_INPUTS, ids=[p.stem for p in TORUS_INPUTS])
    def test_torus_stdout_byte_identical(self, path, command, fmt, capsys):
        assert main(["--format", fmt, command, str(path)]) == 0
        expected = (REPO / "tests" / "snapshots" / f"{command}-{path.stem}-{fmt}.out").read_bytes()
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("path", TORUSGEN_INPUTS, ids=[p.stem for p in TORUSGEN_INPUTS])
    def test_torusgen_filtration_byte_identical(self, path, capsys):
        assert main(["--format", "json", "filtration", str(path)]) == 0
        expected = (REPO / "tests" / "snapshots" / f"filtration-{path.stem}-json.out").read_bytes()
        assert capsys.readouterr().out.encode() == expected


class TestDeterminism:
    def test_reports_byte_identical_across_threads(self):
        runs = [
            run_cli("--format", "json", "--threads", str(k), "orders-scan", "--bound", "200").stdout
            for k in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_env_thread_override(self):
        import os

        env = dict(os.environ, REIDTAI_THREADS="3")
        out = subprocess.run(
            [sys.executable, "-m", "reidtai.cli", "--format", "json", "orders-scan", "--bound", "200"],
            capture_output=True,
            text=True,
            env=env,
        ).stdout
        base = run_cli("--format", "json", "orders-scan", "--bound", "200").stdout
        assert out == base


class TestThreadKnob:
    @staticmethod
    def run_with_bad_env(*args):
        import os

        env = dict(os.environ, REIDTAI_THREADS="abc")
        return subprocess.run(
            [sys.executable, "-m", "reidtai.cli", *args], capture_output=True, text=True, cwd=REPO, env=env
        )

    def test_malformed_env_exit_2(self):
        result = self.run_with_bad_env("orders-scan", "--bound", "30")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: REIDTAI_THREADS must be an integer")

    def test_flag_wins_over_malformed_env(self):
        # the variable is read only when --threads is absent
        result = self.run_with_bad_env("--threads", "1", "orders-scan", "--bound", "30")
        assert result.returncode == 0, result.stderr


class TestGolden:
    def test_repository_golden_files_match(self, capsys):
        assert main(["golden", "--dir", str(REPO / "golden")]) == 0

    def test_regeneration_round_trip(self, tmp_path, capsys):
        assert main(["golden", "--dir", str(tmp_path)]) == 1  # nothing there yet
        capsys.readouterr()
        assert main(["golden", "--write", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["golden", "--dir", str(tmp_path)]) == 0
        for name in ("table1.json", "table2.json", "pairs.json", "orders.json", "multisets.json"):
            assert json.loads((tmp_path / name).read_text())["schema"] == 1

    def test_repository_holds_only_the_computed_files(self):
        # check_golden reads only the computed names, so it would pass a stale extra file
        from reidtai.golden import compute_golden

        assert sorted(path.name for path in (REPO / "golden").iterdir()) == sorted(compute_golden())

    def test_write_into_regular_file_exit_2(self, tmp_path, capsys):
        target = tmp_path / "not_a_dir"
        target.write_text("keep")
        assert main(["golden", "--write", "--dir", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write golden files")
        assert target.read_text() == "keep"

    def test_check_against_regular_file_exit_2(self, tmp_path, capsys):
        target = tmp_path / "not_a_dir"
        target.write_text("keep")
        assert main(["golden", "--dir", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read golden files")


class TestMonomialCommand:
    @pytest.mark.parametrize(
        "args",
        [
            ["--m", "7", "--p", "1", "--n", "6"],
            ["--m", "4", "--p", "1", "--n", "4", "--cap", "100"],
        ],
    )
    def test_cap_overflow_exit_2(self, args):
        result = run_cli("monomial-check", *args)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("n", [5000, 1_000_000])
    def test_cap_overflow_of_a_huge_group_exit_2_at_once(self, n, capsys):
        # |G(1,1,n)| = n! is never computed: the running product passes the cap at 10!
        start = time.perf_counter()
        assert main(["monomial-check", "--m", "1", "--p", "1", "--n", str(n)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: |G(1,1,{n})| exceeds cap 1000000\n"

    @pytest.mark.parametrize(
        "m, p, n, message",
        [
            (3, 3, 1, "reflection representation needs degree >= 2"),  # G(3,3,1) is trivial, so phase-free
            (2, 1, 2, "reflection projection only applies to phase-free (symmetric) groups"),
        ],
    )
    def test_reflection_rep_input_errors_exit_2(self, m, p, n, message, capsys):
        assert main(["monomial-check", "--m", str(m), "--p", str(p), "--n", str(n), "--reflection-rep"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_monomial_check(self, capsys):
        assert main(["--format", "json", "monomial-check", "--m", "2", "--p", "1", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_order"] == payload["expected_order"] == 48
        assert payload["violations"] == []

    def test_imprimitive_cases(self, capsys):
        assert main(["--format", "json", "imprimitive-cases"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cases"]) == 5
        assert sum(not c["eliminated"] for c in payload["cases"]) == 1


class TestTableRenderers:
    """Every subcommand renders table format without crashing."""

    @pytest.mark.parametrize(
        "args",
        [
            ["age", "--spectrum", "1/6,1/3"],
            ["rt-check", "--spectrum", "1/2,1/2"],
            ["table1"],
            ["orders-scan", "--bound", "30"],
            ["pair-search", "--f-max", "12"],
            ["multisets", "--f-max", "12", "--mode", "orbit-sets"],
            ["same-order-screen", "--n", "6", "--dim", "5"],
            ["simple-av-screen", "--dim", "4"],
            ["monomial-check", "--m", "2", "--p", "2", "--n", "2"],
            ["imprimitive-cases"],
            ["deviation", "--spectrum", "1/6,1/3"],
            ["extraspecial-scan", "--max-dim", "9"],
        ],
    )
    def test_table_format(self, args, capsys):
        assert main(args) == 0
        assert capsys.readouterr().out.strip()

    def test_torus_tables(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({
            "rank": 1,
            "generators": [{"matrix": [[-1]], "translation": ["0"]}],
        }))
        assert main(["av-verdict", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "RationallyConnected"
        assert main(["filtration", str(path)]) == 0
        assert "verdict: RationallyConnected" in capsys.readouterr().out


class TestDeviationCommand:
    def test_spectrum(self, capsys):
        assert main(["--format", "json", "deviation", "--spectrum", "1/6,1/6,1/3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenbasis_deviation"] < payload["arc_bound"]

    def test_matrix_file(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[0, 1]]]))  # 1x1 matrix [i]
        assert main(["--format", "json", "deviation", "--matrix", str(mfile)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["total"] - 2**0.5) < 1e-9

    @pytest.mark.parametrize(
        "flag, entry",
        [(flag, entry) for flag in ("matrix", "basis") for entry in (2, float("nan"), float("inf"))],
        ids=[f"{flag}-{entry}" for flag in ("matrix", "basis") for entry in ("2", "NaN", "Infinity")],
    )
    def test_non_unitary_matrix_exit_2(self, tmp_path, capsys, flag, entry):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[[entry, 0]]]))  # json writes NaN and Infinity, and reads them back
        one = tmp_path / "one.json"
        one.write_text(json.dumps([[[1, 0]]]))
        argv = ["deviation", "--matrix", str(bad)] if flag == "matrix" else ["deviation", "--matrix", str(one), "--basis", str(bad)]
        with warnings.catch_warnings(record=True) as caught:  # pytest would otherwise keep a warning off stderr
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Warning" not in err
        assert not caught

    def test_matrix_with_explicit_basis(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[-1, 0], [0, 0]], [[0, 0], [1, 0]]]))  # diag(-1, 1)
        bfile = tmp_path / "b.json"
        s = 2**-0.5
        bfile.write_text(json.dumps([[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]))
        assert main(["--format", "json", "deviation", "--matrix", str(mfile), "--basis", str(bfile)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # both rotated basis vectors move by sqrt(2)
        assert abs(payload["total"] - 2 * 2**0.5) < 1e-9

    def test_malformed_basis_file_exit_2(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[0, 1]]]))
        bfile = tmp_path / "b.json"
        bfile.write_text(json.dumps([[1], [2]]))  # entries are not [re, im] pairs
        assert main(["deviation", "--matrix", str(mfile), "--basis", str(bfile)]) == 2
        assert capsys.readouterr().err.startswith("error: bad basis file")

    def test_basis_of_another_dimension_exit_2(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[-1, 0], [0, 0]], [[0, 0], [1, 0]]]))  # diag(-1, 1)
        bfile = tmp_path / "b.json"
        bfile.write_text(json.dumps([[[1, 0]]]))
        assert main(["deviation", "--matrix", str(mfile), "--basis", str(bfile)]) == 2
        assert capsys.readouterr().err == "error: basis dimension 1 does not match operator dimension 2\n"

    def test_simple_av_screen(self, capsys):
        assert main(["--format", "json", "simple-av-screen", "--dim", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["survivors"] == {"6": "2/3", "10": "4/5"}
        assert payload["extra_survivors"] == {"15": "14/15"}

    def test_rt_check_without_spectra_exit_2(self):
        assert main(["rt-check"]) == 2

    @pytest.mark.parametrize("max_dim", ["-1", "0"])
    def test_extraspecial_scan_nonpositive_bound_exit_2(self, max_dim, capsys):
        assert main(["extraspecial-scan", "--max-dim", max_dim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_extraspecial_scan(self, capsys):
        assert main(["--format", "json", "extraspecial-scan", "--max-dim", "18"]) == 0
        payload = json.loads(capsys.readouterr().out)
        survivors = {(r["p"], r["n_exp"], r["m"]) for r in payload["records"] if r["survives"]}
        assert (2, 1, 1) in survivors
        assert (2, 4, 1) not in survivors
        assert (3, 2, 2) not in survivors
