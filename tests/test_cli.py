import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import flatcusps
from flatcusps import selberg
from flatcusps.bieberbach import AffineMap, BieberbachGroup, catalog, catalog_names
from flatcusps.cli import main
from flatcusps.density import Lcg
from flatcusps.lorentz import embed_group, integralize, verify_embedding
from flatcusps.serialize import form_to_dict, group_to_dict
from flatcusps.exactlin import Matrix, SymmetricForm
from flatcusps.shapes import ShapeDescriptor

from oracles import bump_conjugate


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def fractional_group_file(tmp_path):
    # an order-two linear part with entries 1/2 and 2 preserves the averaged
    # form but has no integral conjugate by scaling, so integralize rejects it
    data = {
        "dim": 2,
        "generators": [
            {"linear": [["0", "1/2"], ["2", "0"]], "translation": ["0", "0"]},
            {"linear": [["1", "0"], ["0", "1"]], "translation": ["1", "0"]},
            {"linear": [["1", "0"], ["0", "1"]], "translation": ["0", "1"]},
        ],
    }
    return write_json(tmp_path / "fractional.json", data)


def run_cli(args, timeout=60):
    """Run ``flatcusps.cli`` in a fresh interpreter; a hang fails the test
    through ``subprocess.TimeoutExpired`` instead of stalling the suite."""
    src = str(Path(flatcusps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "flatcusps.cli", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def torus2_file(tmp_path):
    return write_json(tmp_path / "torus2.json", group_to_dict(catalog("torus-2")))


@pytest.fixture
def id2_form_file(tmp_path):
    return write_json(tmp_path / "id2.json", form_to_dict(SymmetricForm.identity(2)))


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "klein" in out and "torus-4" in out and "hantzsche-wendt" in out

    def test_show_klein(self, capsys):
        assert main(["catalog", "show", "klein"]) == 0
        out = capsys.readouterr().out
        assert "holonomy order: 2" in out
        assert "torsion-free: true" in out
        assert "1/2" in out

    def test_show_unknown(self, capsys):
        assert main(["catalog", "show", "nope"]) == 1
        assert "unknown catalog group" in capsys.readouterr().err


class TestVerifyGroup:
    def test_catalog_name(self, capsys):
        assert main(["verify-group", "-g", "hantzsche-wendt"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holonomy_order"] == 4
        assert payload["torsion_free"] is True

    def test_closed_stdout_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch):
        # a reader that stops early (`| head -c 20`): the write raises
        # BrokenPipeError, and the descriptor behind stdout is pointed at
        # devnull, so the flush at exit has nowhere to fail
        with open(tmp_path / "stdout", "wb") as behind:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return behind.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["verify-group", "-g", "hantzsche-wendt"]) == 1
            os.write(behind.fileno(), b"after the pipe closed")
        assert (tmp_path / "stdout").read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_group_with_torsion_exits_two(self, tmp_path, capsys):
        data = {
            "dim": 2,
            "generators": [
                {"linear": [["1", "0"], ["0", "1"]], "translation": ["1", "0"]},
                {"linear": [["1", "0"], ["0", "1"]], "translation": ["0", "1"]},
                {"linear": [["1", "0"], ["0", "-1"]], "translation": ["0", "0"]},
            ],
        }
        path = write_json(tmp_path / "torsion.json", data)
        assert main(["verify-group", "-g", path]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["torsion_free"] is False

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["verify-group", "-g", str(path)]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_field_path_in_error(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {"dim": 2, "generators": [{"linear": [["1", "0"], ["0", "1"]], "translation": [0.5, "0"]}]},
        )
        assert main(["verify-group", "-g", path]) == 1
        err = capsys.readouterr().err
        assert "generators[0].translation[0]" in err


class TestAverage:
    def test_klein_average(self, tmp_path, capsys):
        form_path = write_json(
            tmp_path / "form.json",
            {"dim": 2, "matrix": [["2", "1"], ["1", "3"]]},
        )
        assert main(["average", "-g", "klein", "-f", form_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == [["2", "0"], ["0", "3"]]

    def test_unprintable_entry_exits_one(self, tmp_path):
        # 10**4300 has one digit more than CPython prints; the error names the field
        form_path = write_json(tmp_path / "form.json", {"matrix": [["1e4300"]]})
        done = run_cli(["average", "-g", "torus-1", "-f", form_path])
        assert done.returncode == 1
        assert done.stderr.startswith("error: form.matrix[0][0]: ")
        assert "4300 digits" in done.stderr


    def test_unprintable_average_exits_one(self, tmp_path):
        # each input entry prints, but the holonomy average divides by 3 and 6
        tiny = "1.25e-4300"
        form_path = write_json(
            tmp_path / "form.json",
            {"matrix": [[tiny, "0", "0"], ["0", tiny, "0"], ["0", "0", "1"]]},
        )
        done = run_cli(["average", "-g", "third-turn", "-f", form_path])
        assert done.returncode == 1
        assert done.stderr.startswith("error: form.matrix: ")
        assert "more than 4300 digits" in done.stderr


class TestApproximate:
    def test_decimal_target(self, tmp_path, capsys):
        target_path = write_json(
            tmp_path / "target.json",
            {"dim": 2, "matrix": [[1.0, 0.2], [0.2, 2.0]]},
        )
        assert main(["approximate", "-g", "torus-2", "-t", target_path, "-d", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["form"] == [["1", "1/5"], ["1/5", "2"]]

    @pytest.mark.parametrize("entry", ["Infinity", "NaN"])
    def test_non_finite_target_exits_one(self, tmp_path, capsys, entry):
        # json.loads accepts these bare names, so the file parses
        target_path = tmp_path / "target.json"
        target_path.write_text(
            f'{{"dim": 2, "matrix": [[{entry}, 0], [0, 1]]}}', encoding="utf-8"
        )
        code = main(["approximate", "-g", "torus-2", "-t", str(target_path), "-d", "100"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: target.matrix")

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param('"1e400"', id="1e400-string"),
            pytest.param("1" + "0" * 400, id="401-digit-integer"),
        ],
    )
    def test_entry_beyond_a_double_is_exact(self, tmp_path, capsys, entry):
        # finite, but too large for a float: read exactly, and an integer
        # is its own best approximation
        target_path = tmp_path / "target.json"
        target_path.write_text(
            f'{{"dim": 2, "matrix": [[{entry}, 0], [0, 1]]}}', encoding="utf-8"
        )
        code = main(["approximate", "-g", "torus-2", "-t", str(target_path), "-d", "100"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["form"] == [[str(10**400), "0"], ["0", "1"]]

    def test_exact_entry_is_not_rounded_through_a_double(self, tmp_path, capsys):
        target_path = write_json(tmp_path / "target.json", {"matrix": [["1/3"]]})
        assert main(["approximate", "-g", "torus-1", "-t", target_path, "-d", str(10**17)]) == 0
        assert json.loads(capsys.readouterr().out)["form"] == [["1/3"]]

    def test_huge_exponent_exits_one_promptly(self, tmp_path):
        # Fraction("1e999999999") would build 10**999999999 before failing
        target_path = write_json(
            tmp_path / "target.json",
            {"dim": 2, "matrix": [["1e999999999", 0], [0, 1]]},
        )
        done = run_cli(["approximate", "-g", "torus-2", "-t", target_path, "-d", "100"])
        assert done.returncode == 1
        assert done.stderr.startswith("error: target.matrix[0][0]: decimal exponent exceeds 4300")

    def test_indefinite_target_exits_two(self, tmp_path, capsys):
        target_path = write_json(
            tmp_path / "target.json",
            {"dim": 2, "matrix": [[1.0, 2.0], [2.0, 1.0]]},
        )
        assert main(["approximate", "-g", "torus-2", "-t", target_path, "-d", "100"]) == 2


# An output anchor for `approximate`, beside the density ones: exit code,
# stdout and stderr of every run below, hashed in order
APPROXIMATE_SHA256 = "1eac44a31bd6659101121f99d6e72f487ab497a8d0407a66d64caf5ce61128c6"
APPROXIMATE_BOUNDS = ("1", "10", "1000", "1000000")
MALFORMED_TARGETS = {
    "infinity": '{"dim": 2, "matrix": [[Infinity, 0], [0, 1]]}',
    "nan": '{"dim": 2, "matrix": [[1, NaN], [NaN, 1]]}',
    # too large for a double, but read exactly, so accepted
    "1e400-string": '{"dim": 2, "matrix": [["1e400", 0], [0, 1]]}',
    "asymmetric": '{"dim": 2, "matrix": [[1.0, 0.5], [0.25, 1.0]]}',
    "non-square": '{"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}',
    # within the symmetry tolerance: the upper triangle is mirrored
    "nearly-symmetric": '{"dim": 2, "matrix": [[2.0, 0.5], [0.5000000000001, 1.0]]}',
    "wrong-size": '{"dim": 3, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
    "indefinite": '{"dim": 2, "matrix": [[1.0, 2.0], [2.0, 1.0]]}',
}


def seeded_decimal_target(dim, rng):
    """``A^T A + I/2`` with the entries of ``A`` drawn from ``rng``, in six
    decimals: positive definite, and not invariant under a nontrivial holonomy.
    ``math.fsum`` is correctly rounded, so the decimals are the same on every
    Python; ``sum`` compensates its rounding from 3.12 on."""
    a = [[rng.uniform_symmetric() for _ in range(dim)] for _ in range(dim)]
    return [
        [round(math.fsum(a[k][i] * a[k][j] for k in range(dim)) + (0.5 if i == j else 0.0), 6)
         for j in range(dim)]
        for i in range(dim)
    ]


def approximate_runs():
    """(group, target JSON text, bound) for every anchored run: each catalog
    group with a seeded decimal target, which ``rationalize`` must average,
    and the identity, at each bound; then the malformed targets on torus-2."""
    rng = Lcg(29)
    for name in catalog_names():
        dim = catalog(name).dim
        identity = [[float(i == j) for j in range(dim)] for i in range(dim)]
        for matrix in (seeded_decimal_target(dim, rng), identity):
            text = json.dumps({"dim": dim, "matrix": matrix})
            for bound in APPROXIMATE_BOUNDS:
                yield name, text, bound
    for text in MALFORMED_TARGETS.values():
        yield "torus-2", text, "10"


def test_approximate_anchor(tmp_path, capsys):
    target = tmp_path / "target.json"
    digest = hashlib.sha256()
    codes = []
    for name, text, bound in approximate_runs():
        target.write_text(text, encoding="utf-8")
        code = main(["approximate", "-g", name, "-t", str(target), "-d", bound])
        out, err = capsys.readouterr()
        codes.append(code)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    malformed = codes[-len(MALFORMED_TARGETS):]
    assert malformed == [1, 1, 0, 1, 1, 0, 1, 2]
    assert 2 in codes[: -len(MALFORMED_TARGETS)]  # rounding at bound 1 kills definiteness
    assert digest.hexdigest() == APPROXIMATE_SHA256


# CI's catalog embed anchor: the public chain at a torus-6 form whose scale
# is 12, hantzsche-wendt at the identity, and third-turn at an average
EMBED_ANCHOR_SHA256 = "8779f84f2e12673f9731de6b3a5551965269bda6ead1a552741f4cd2842227c0"
EMBED_ANCHOR_FORMS = {
    "t6.json": '{"matrix": [["2", "5/3", 0, 0, 0, 0], ["5/3", "2", 0, 0, 0, 0], '
    '[0, 0, "3", "11/4", 0, 0], [0, 0, "11/4", "3", 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]}',
    "id3.json": '{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
    "raw3.json": '{"matrix": [[2, 1, 0], [1, 3, "1/2"], [0, "1/2", "5/2"]]}',
}


def test_embed_anchor(tmp_path, capsys):
    # the output of the commands CI runs, concatenated as CI writes it
    for name, text in EMBED_ANCHOR_FORMS.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    assert main(["average", "-g", "third-turn", "-f", str(tmp_path / "raw3.json")]) == 0
    (tmp_path / "avg3.json").write_text(capsys.readouterr().out, encoding="utf-8")
    out = []
    for group, form in (("torus-6", "t6.json"), ("hantzsche-wendt", "id3.json"), ("third-turn", "avg3.json")):
        assert main(["embed", "-g", group, "-f", str(tmp_path / form), "--integralize", "--report"]) == 0
        out.append(capsys.readouterr().out)
    assert json.loads(out[0])["embedding"]["scale"] == 12
    assert hashlib.sha256("".join(out).encode()).hexdigest() == EMBED_ANCHOR_SHA256


# CI's certificate verifier anchor: README's worked example at K = 6, and
# torus-3's integral embedding at K = 4, where the words start at their least
# letter, and at K = 6, where the bound on its ball passes the cap and the
# whole ball is searched
SELBERG_ANCHOR_SHA256 = "15699ea4698caf2e78def689ba4a1c9f224302386c29e9134bb46b778092f3c8"


def test_selberg_anchor(tmp_path, capsys):
    # the output of the commands CI runs, concatenated as CI writes it
    form = tmp_path / "id3.json"
    form.write_text(EMBED_ANCHOR_FORMS["id3.json"] + "\n", encoding="utf-8")
    assert main(["embed", "-g", "torus-3", "-f", str(form), "--integralize"]) == 0
    images = json.loads(capsys.readouterr().out)["embedding"]["images"]
    torus = write_json(tmp_path / "t3lam.json", {"n": len(images[0]), "generators": images})
    # six letters: B(4) = 937 words fit the cap, B(6) = 23,437 do not
    bound = [1 + sum(6 * 5 ** (l - 1) for l in range(1, k + 1)) for k in (4, 6)]
    assert bound == [937, 23437] and bound[0] <= selberg.MAX_WORD_BALL < bound[1]
    lam, gam = worked_example_files(tmp_path)
    out = []
    for args in ((lam, gam, "6"), (torus, torus, "4"), (torus, torus, "6")):
        assert main(["selberg", "-l", args[0], "-u", args[1], "--verify-words", args[2]]) == 0
        out.append(capsys.readouterr().out)
    assert [json.loads(text)["verified"] for text in out] == [True] * 3
    assert hashlib.sha256("".join(out).encode()).hexdigest() == SELBERG_ANCHOR_SHA256


class TestEmbed:
    def test_report_all_true(self, torus2_file, id2_form_file, capsys):
        assert main(["embed", "-g", torus2_file, "-f", id2_form_file, "--report"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["overall"] is True
        assert len(payload["embedding"]["images"]) == 2
        assert payload["embedding"]["v_inf"] == ["0", "0", "1", "1"]

    def test_integralize_scale_in_output(self, capsys, tmp_path):
        form_path = write_json(
            tmp_path / "even.json", form_to_dict(SymmetricForm.diagonal([2, 2]))
        )
        assert main(["embed", "-g", "klein", "-f", form_path, "--integralize", "--report"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["embedding"]["scale"] == 2
        assert payload["report"]["overall"] is True

    def test_unprintable_scale_exits_one(self, tmp_path):
        # the scale 2 D E clears the denominators of t = 1/D and B_K t = 1/(D E)
        big_d, big_e = 10**4299 + 1, 10**4299 + 3
        group = {"dim": 1, "generators": [{"linear": [["1"]], "translation": [f"1/{big_d}"]}]}
        group_path = write_json(tmp_path / "group.json", group)
        form_path = write_json(tmp_path / "form.json", {"matrix": [[f"1/{big_e}"]]})
        done = run_cli(["embed", "-g", group_path, "-f", form_path, "--integralize"])
        assert done.returncode == 1
        assert done.stderr.startswith("error: embedding.scale: ")
        assert "more than 4300 digits" in done.stderr

    def test_integralize_failure_exits_one(self, capsys, tmp_path):
        # integralize raises a plain ValueError here; main reports it as a
        # validation failure rather than letting it escape
        form_file = write_json(
            tmp_path / "form.json", form_to_dict(SymmetricForm.diagonal([4, 1]))
        )
        code = main(
            ["embed", "-g", fractional_group_file(tmp_path), "-f", form_file,
             "--integralize"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_invariant_form_exits_two(self, capsys, tmp_path):
        form_path = write_json(
            tmp_path / "skew.json",
            {"dim": 2, "matrix": [["2", "1"], ["1", "3"]]},
        )
        assert main(["embed", "-g", "klein", "-f", form_path]) == 2
        assert "verification failed" in capsys.readouterr().err


class TestEmptyRows:
    # a matrix whose first row is empty is rejected at that row's path
    def test_form(self, tmp_path, capsys):
        form = write_json(tmp_path / "form.json", {"matrix": [[]]})
        assert main(["average", "-g", "torus-1", "-f", form]) == 1
        assert "error: form.matrix[0]: " in capsys.readouterr().err

    def test_selberg_generator(self, tmp_path, capsys):
        lam = write_json(tmp_path / "lam.json", {"n": 1, "generators": [[[]]]})
        gam = write_json(tmp_path / "gam.json", {"n": 1, "generators": []})
        assert main(["selberg", "-l", lam, "-u", gam]) == 1
        assert "error: lambda.generators[0][0]: " in capsys.readouterr().err

    def test_group_linear(self, tmp_path, capsys):
        group = write_json(
            tmp_path / "group.json",
            {"dim": 1, "generators": [{"linear": [[]], "translation": ["1"]}]},
        )
        assert main(["verify-group", "-g", group]) == 1
        assert "error: group.generators[0].linear[0]: " in capsys.readouterr().err


def worked_example_files(tmp_path):
    lam = write_json(
        tmp_path / "lam.json",
        {"n": 2, "generators": [[["1", "1"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]]},
    )
    gam = write_json(
        tmp_path / "gam.json",
        {"n": 2, "generators": [[["1", "1"], ["0", "1"]]]},
    )
    return lam, gam


class TestSelberg:
    def test_worked_example(self, tmp_path, capsys):
        lam, gam = worked_example_files(tmp_path)
        assert main(["selberg", "-l", lam, "-u", gam]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime"] == 5
        assert sorted(payload["bad_primes"]) == ["2", "3"]

        assert main(["selberg", "-l", lam, "-u", gam, "--verify-words", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True

    def test_finite_group_huge_word_length_stops(self, tmp_path):
        # <-I> saturates after one step; every later pass of the word ball
        # would find an empty frontier, 10**12 times
        lam = write_json(
            tmp_path / "lam.json", {"n": 2, "generators": [[["-1", "0"], ["0", "-1"]]]}
        )
        gam = write_json(tmp_path / "gam.json", {"n": 2, "generators": []})
        done = run_cli(["selberg", "-l", lam, "-u", gam, "--verify-words", str(10**12)])
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["verified"] is True

    def test_negative_word_length_exits_one(self, tmp_path, capsys):
        lam, gam = worked_example_files(tmp_path)
        assert main(["selberg", "-l", lam, "-u", gam, "--verify-words", "-3"]) == 1
        assert "word length must be non-negative" in capsys.readouterr().err

    def test_word_ball_over_the_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(selberg, "MAX_WORD_BALL", 7)
        lam, gam = worked_example_files(tmp_path)
        assert main(["selberg", "-l", lam, "-u", gam, "--verify-words", "2"]) == 1
        assert "MAX_WORD_BALL = 7 elements" in capsys.readouterr().err

    def test_non_unipotent_gamma_exits_one(self, tmp_path, capsys):
        lam = write_json(
            tmp_path / "lam.json",
            {"n": 2, "generators": [[["1", "1"], ["0", "1"]]]},
        )
        gam = write_json(
            tmp_path / "gam.json",
            {"n": 2, "generators": [[["-1", "0"], ["0", "-1"]]]},
        )
        assert main(["selberg", "-l", lam, "-u", gam]) == 1


class TestSelbergSingularGenerator:
    def test_singular_ambient_generator_exits_one(self, tmp_path):
        lam = write_json(
            tmp_path / "lam.json",
            {"n": 2, "generators": [[["1", "1"], ["0", "1"]], [["1", "2"], ["2", "4"]]]},
        )
        gam = write_json(tmp_path / "gam.json", {"n": 2, "generators": []})
        done = run_cli(["selberg", "-l", lam, "-u", gam])
        assert done.returncode == 1
        assert done.stderr == "error: lambda.generators: ambient generators must be invertible\n"
        assert not done.stdout


class TestSelbergLargeEntries:
    # inverse denominators with large prime factors, and ones that trial
    # division up to the bound could not factor: the congruence prime is
    # found by trying 2, 3, 5, ..., so none of them is factored or listed
    def files(self, tmp_path, entry):
        lam = write_json(
            tmp_path / "lam.json", {"n": 2, "generators": [[[str(entry), "0"], ["0", "1"]]]}
        )
        gam = write_json(tmp_path / "gam.json", {"n": 2, "generators": []})
        return lam, gam

    @pytest.mark.parametrize("p", [100000000000031, 100000000000000000039])
    def test_large_prime_is_fast(self, tmp_path, capsys, p):
        lam, gam = self.files(tmp_path, p)
        start = time.perf_counter()
        assert main(["selberg", "-l", lam, "-u", gam]) == 0
        assert time.perf_counter() - start < 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime"] == 5 and sorted(payload["bad_primes"]) == ["2", "3"]

    @pytest.mark.parametrize(
        "entry",
        [1000003 * 1000033, 2**89 - 1, 10**30 + 57],
        ids=["product-of-two-primes-above-the-bound", "mersenne-89", "ten-to-the-30-plus-57"],
    )
    def test_unfactorable_entry_is_certified(self, tmp_path, capsys, entry):
        lam, gam = self.files(tmp_path, entry)
        start = time.perf_counter()
        assert main(["selberg", "-l", lam, "-u", gam, "--verify-words", "6"]) == 0
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["prime"] == 5 and sorted(payload["bad_primes"]) == ["2", "3"]
        assert payload["verified"] is True and not captured.err

    def test_prime_power_determinant(self, tmp_path, capsys):
        # the inverse's denominator is 1000003^2, above the square of the
        # trial bound, and neither it nor its prime is listed
        p = 1000003
        lam = write_json(tmp_path / "lam.json", {"n": 2, "generators": [[[p * p, 0], [0, 1]]]})
        gam = write_json(tmp_path / "gam.json", {"n": 2, "generators": []})
        assert main(["selberg", "-l", lam, "-u", gam]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime"] == 5 and sorted(payload["bad_primes"]) == ["2", "3"]


class TestSelbergDegreeBound:
    def test_degree_above_the_old_bound_exits_zero(self, tmp_path, capsys):
        # 17 is above the former bound of 16: every prime up to n + 1 = 18
        # is passed over, one residue is printed per cyclotomic factor
        n = 17
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        lam = write_json(tmp_path / "lam.json", {"n": n, "generators": [identity]})
        gam = write_json(tmp_path / "gam.json", {"n": n, "generators": []})
        start = time.perf_counter()
        assert main(["selberg", "-l", lam, "-u", gam, "--verify-words", "2"]) == 0
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["prime"] == 19 and payload["verified"] is True
        assert sorted(map(int, payload["bad_primes"])) == [2, 3, 5, 7, 11, 13, 17]
        assert not captured.err


class TestDensity:
    def test_end_to_end(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        out_json = tmp_path / "rows.json"
        code = main(
            [
                "density", "-g", "torus-2", "--samples", "4", "--denoms", "10,100",
                "--seed", "8", "--pipeline", "--torus-manifold",
                "-o", str(out_csv), "--json", str(out_json),
            ]
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sample_id,denom_bound,error,pipeline_ok,selberg_prime"
        assert len(lines) == 9
        assert all(line.endswith(",true,7") for line in lines[1:])
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert len(payload) == 8
        assert payload[0]["pipeline_ok"] is True

    def test_same_seed_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(
                ["density", "-g", "torus-2", "--samples", "3", "--denoms", "10,1000",
                 "--seed", "8", "-o", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_denoms_rejected(self, tmp_path, capsys):
        assert main(
            ["density", "-g", "torus-2", "--samples", "1", "--denoms", "100,10",
             "--seed", "1", "-o", str(tmp_path / "x.csv")]
        ) == 1
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--pipeline", "--torus-manifold"], ["--torus-manifold"]],
        ids=["pipeline-and-torus-manifold", "torus-manifold-only"],
    )
    def test_failed_pipeline_rows_exit_two(self, tmp_path, capsys, flags):
        # integralize rejects every row of this group; --torus-manifold runs
        # the pipeline with or without --pipeline, so both record failures
        out_csv = tmp_path / "fractional.csv"
        code = main(
            ["density", "-g", fractional_group_file(tmp_path), "--samples", "2",
             "--denoms", "10", "--seed", "8", *flags, "-o", str(out_csv)]
        )
        assert code == 2
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert all(line.endswith(",false,") for line in lines[1:])

    def test_failed_pipeline_rows_record_the_reason(self, tmp_path, capsys):
        out_csv, out_json = tmp_path / "fractional.csv", tmp_path / "fractional.json"
        code = main(
            ["density", "-g", fractional_group_file(tmp_path), "--samples", "2",
             "--denoms", "10", "--seed", "8", "--pipeline", "--torus-manifold",
             "-o", str(out_csv), "--json", str(out_json)]
        )
        assert code == 2
        assert capsys.readouterr().err == "2 rows failed pipeline verification\n"
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert [row["reason"] for row in payload] == [
            "ValueError: a linear factor has fractional entries; "
            "hyperbolic conjugation cannot integralize this embedding"
        ] * 2

    def test_translations_that_do_not_span_exit_one(self, tmp_path):
        # --torus-manifold builds the translation lattice before any row, so
        # a group with one translation in dimension 2 fails the whole run
        data = {
            "dim": 2,
            "generators": [{"linear": [["1", "0"], ["0", "1"]], "translation": ["1", "0"]}],
        }
        out_csv = tmp_path / "rows.csv"
        result = run_cli(
            ["density", "-g", write_json(tmp_path / "line.json", data), "--samples", "2",
             "--denoms", "10", "--seed", "8", "--torus-manifold", "-o", str(out_csv)]
        )
        assert result.returncode == 1
        assert result.stderr == "error: translations span rank 1 < 2; input rejected\n"
        assert not out_csv.exists()

    def test_failed_reverification_exits_two(self, tmp_path, capsys, monkeypatch):
        bump_conjugate(monkeypatch)
        out_csv, out_json = tmp_path / "rows.csv", tmp_path / "rows.json"
        code = main(
            ["density", "-g", "torus-2", "--samples", "2", "--denoms", "10",
             "--seed", "8", "--pipeline", "-o", str(out_csv), "--json", str(out_json)]
        )
        assert code == 2
        assert capsys.readouterr().err == "2 rows failed pipeline verification\n"
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert [row["pipeline_ok"] for row in payload] == [False, False]
        assert all(row["reason"].startswith("InvariantViolation:") for row in payload)

    @pytest.mark.parametrize("flag", ["-o", "--json"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, flag):
        unwritable = tmp_path / "missing-dir" / "out"
        args = ["density", "-g", "torus-2", "--samples", "1", "--denoms", "10", "--seed", "8"]
        if flag == "-o":
            args += ["-o", str(unwritable)]
        else:
            args += ["-o", str(tmp_path / "rows.csv"), "--json", str(unwritable)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {unwritable}: ")
        assert "Traceback" not in captured.err
        assert not unwritable.parent.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_option(self, capsys):
        assert main(["verify-group"]) == 1

    def test_unknown_group_spec(self, capsys):
        assert main(["verify-group", "-g", "not-a-thing"]) == 1
        assert "neither a catalog name nor an existing file" in capsys.readouterr().err


# One well-formed piece of each input file; the cases below break one field.
IDENTITY_2 = [["1", "0"], ["0", "1"]]
GENERATOR = {"linear": IDENTITY_2, "translation": ["1", "0"]}


def _group(**fields):
    return {"dim": 2, "generators": [GENERATOR], **fields}


def _generator(**fields):
    entry = {**GENERATOR, **fields}
    return _group(generators=[{k: v for k, v in entry.items() if v is not None}])


# (case, input file kind, payload, the start of the one stderr line)
MALFORMED_INPUTS = [
    ("group-not-an-object", "group", [], "group: expected an object, got list"),
    ("dim-not-an-integer", "group", _group(dim="2"), "group.dim: expected an integer, got str"),
    ("dim-not-positive", "group", _group(dim=0), "group.dim: dimension must be positive"),
    ("name-not-a-string", "group", _group(name=5), "group.name: name must be a string"),
    ("generators-missing", "group", {"dim": 2}, "group.generators: missing required field"),
    ("generators-not-a-list", "group", _group(generators={}), "group.generators: expected a list"),
    ("generators-empty", "group", _group(generators=[]), "group.generators: at least one generator"),
    ("generator-not-an-object", "group", _group(generators=[5]), "group.generators[0]: expected an object"),
    ("linear-missing", "group", _generator(linear=None), "group.generators[0].linear: missing required"),
    ("translation-missing", "group", _generator(translation=None),
     "group.generators[0].translation: missing required"),
    ("linear-empty", "group", _generator(linear=[]), "group.generators[0].linear: matrix must not be empty"),
    ("linear-unequal-rows", "group", _generator(linear=[["1", "0"], ["1"]]),
     "group.generators[0].linear[1]: matrix rows have unequal lengths"),
    ("translation-wrong-size", "group", _generator(translation=["1"]),
     "group.generators[0].translation: expected a vector of length 2"),
    ("rational-boolean", "group", _generator(translation=[True, "0"]),
     "group.generators[0].translation[0]: expected a rational, got a boolean"),
    ("rational-null", "group", _generator(translation=[None, "0"]),
     "group.generators[0].translation[0]: expected a rational, got NoneType"),
    ("form-matrix-missing", "form", {"dim": 2}, "form.matrix: missing required field"),
    ("form-dim-disagrees", "form", {"dim": 3, "matrix": IDENTITY_2},
     "form.matrix: matrix size 2 does not match dim 3"),
    ("number-boolean", "target", {"matrix": [[True, 0], [0, 1]]},
     "target.matrix[0][0]: expected a number, got a boolean"),
    ("number-null", "target", {"matrix": [[None, 0], [0, 1]]},
     "target.matrix[0][0]: expected a number, got NoneType"),
    ("lambda-n-missing", "lambda", {"generators": []}, "lambda.n: missing required field"),
    ("lambda-generators-missing", "lambda", {"n": 2}, "lambda.generators: missing required field"),
    ("lambda-generator-wrong-size", "lambda", {"n": 2, "generators": [[["1"]]]},
     "lambda.generators[0]: expected an 2x2 matrix"),
]


def _arguments(kind, path, tmp_path):
    if kind == "group":
        return ["verify-group", "-g", path]
    if kind == "form":
        return ["average", "-g", "torus-2", "-f", path]
    if kind == "target":
        return ["approximate", "-g", "torus-2", "-t", path, "-d", "10"]
    gamma = write_json(tmp_path / "gamma.json", {"n": 2, "generators": [[["1", "1"], ["0", "1"]]]})
    return ["selberg", "-l", path, "-u", gamma]


def _density(denoms, tmp_path):
    return ["density", "-g", "torus-2", "--samples", "1", "--denoms", denoms,
            "--seed", "8", "-o", str(tmp_path / "rows.csv")]


# (case, arguments built from tmp_path, the start of the one stderr line)
BAD_ARGUMENTS = [
    ("form-unreadable", lambda tmp: ["average", "-g", "torus-2", "-f", str(tmp / "missing.json")],
     "cannot read "),
    ("catalog-show-without-a-name", lambda tmp: ["catalog", "show"], "catalog show requires a name"),
    ("denoms-not-integers", lambda tmp: _density("10,x", tmp),
     "--denoms must be comma-separated integers"),
    ("denoms-without-a-bound", lambda tmp: _density(",", tmp), "--denoms must list at least one bound"),
]


class TestInputErrors:
    """Every rejected input exits 1 with one ``error: ...`` line on stderr
    and no traceback; malformed files name the offending field's path."""

    @staticmethod
    def assert_one_error_line(capsys, code, start):
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {start}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "kind, payload, start", [case[1:] for case in MALFORMED_INPUTS],
        ids=[case[0] for case in MALFORMED_INPUTS],
    )
    def test_malformed_file(self, tmp_path, capsys, kind, payload, start):
        path = write_json(tmp_path / f"{kind}.json", payload)
        self.assert_one_error_line(capsys, main(_arguments(kind, path, tmp_path)), start)

    @pytest.mark.parametrize(
        "arguments, start", [case[1:] for case in BAD_ARGUMENTS], ids=[case[0] for case in BAD_ARGUMENTS]
    )
    def test_bad_arguments(self, tmp_path, capsys, arguments, start):
        self.assert_one_error_line(capsys, main(arguments(tmp_path)), start)

    @pytest.mark.parametrize(
        "content, message",
        [(b"[" * 2000 + b"]" * 2000, "malformed JSON: nested too deeply"), (b"\xff\xfe{}", "not UTF-8: ")],
        ids=["nested-too-deeply", "not-utf-8"],
    )
    def test_unparsable_text(self, tmp_path, capsys, content, message):
        path = tmp_path / "group.json"
        path.write_bytes(content)
        self.assert_one_error_line(capsys, main(["verify-group", "-g", str(path)]), f"{path}: {message}")


class TestZeroTranslations:
    """With every translation zero there is no coordinate to read a scale
    from, and the shared scale is 1."""

    def test_embed_integralize_report(self, tmp_path, capsys):
        group = write_json(
            tmp_path / "group.json",
            {"dim": 2, "generators": [{"linear": [["1", "0"], ["0", "-1"]], "translation": ["0", "0"]}]},
        )
        form = write_json(tmp_path / "form.json", form_to_dict(SymmetricForm.identity(2)))
        assert main(["embed", "-g", group, "-f", form, "--integralize", "--report"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["embedding"]["scale"] == 1
        assert payload["report"]["overall"] is True

    def test_library(self):
        group = BieberbachGroup([AffineMap(Matrix.diagonal([1, -1]), [0, 0])])
        embedding = embed_group(group, ShapeDescriptor(group, SymmetricForm.identity(2)))
        assert verify_embedding(embedding).overall
        integral, scale = integralize(embedding)
        assert scale == 1 and integral == embedding
