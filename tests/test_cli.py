"""CLI surface: formats, exit codes, grids, and the stable JSON shapes."""

import hashlib
import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from digitsum.cli import parse_cost, parse_grid, parse_seed, run
from digitsum.identities import FAMILY_OF, verify_betaconv_dual2

README = Path(__file__).resolve().parents[1] / "README.md"

# sha256 of `digitsum verify --identity <id> --seed 42` stdout.  A single run
# draws in the suite's order: x, then the y list, then f; the x list before
# the y list.
IDENTITY_SEED42_SHA256 = {
    "difference-identity": "c8666fdfacb47cb8e88fc2060e581423d80ff5da50fdadaa76ee09ee7ef91200",
    "power-sum-n": "91261c05c98f5667b5a82a72f3b615fd101297b3e79fd1d0587ffffc51f9fd39",
    "power-sum-n1": "fc6f8b5de6ad91f8e7a1a535d2af7011497cc4801aa3ab7b4475b9d2027c5263",
    "moment0": "72b3f8ca13572ad1f037ed5d87bd01bc5436da2a591c7bf34945398c96b541e2",
    "moment1": "3b609bbf230b91c16c84740ea4851c77e1f20142437d499bcb1c68067e27ef0f",
    "betaconv-dual1": "30a4bdbdae3dbc55aa4ac9b31792791191c64602116645ead17850b9a1f9f341",
    "betaconv-dual2": "1491955e8b48575cc6a8a3875238cf23c2e630edefb55500c2ab010db2bea840",
    "beta-alpha-reduction": "f2693edaf68f5fc82cbf20acd270b6d2664c39463b8d9d2a2e57640e81d192e3",
    "alpha-moment0": "5591d3ddbc3ef59efa3f6e117d9989e63d575c9cfe142f2700373a9316e5687d",
    "alpha-moment1": "a888443055d2e3a37e1126c68828c71fb300b7ba4e685c50d3c8c30037e9561c",
    "multi-power-sum": "d0fd7b24a5f9e020ef2ee2c5cbc6d1e09298a096e54e2f501a707413ca53fe1e",
    "multisum": "2b7922b569ae13dfa0c9edd28ba6c1168577defa4a0ef04fec304195afcaa4a9",
    "mixed-sum-vanishing": "22746393bb4c4f81de90542aae198f6d3ffd2756cc2a1301d050c671c23c710e",
    "mixed-sum-closed-form": "d8a9fafdad56fd5e68adb1f9ab39b8fb45882d157ba2640d26465a23061eb8f3",
    "mixed-sum-recurrence": "401306f8a85f97e071776124c662afa9726ee645d43baccc078dfc2fad9ad749",
    "multi-mixed-sum": "0a687536a21d18488dffe68903cbab1589abdaa3f2c2aa1a905560dd6daa612f",
    "joint-vanishing": "194294a6cefeb37e645e667c6c9b4895c4f6129364f913bc09b874dc3b9955fc",
    "joint-line-base2": "cb74a7f385e50355b70c9a9118ae831bf98c892a39a4509ed7520c893258f19d",
    "joint-line-general": "eaa0932e3380fd4b246bfd59c43f9468fdd963b0e92fae8f91652df3e9b227ca",
    "faulhaber": "7df0dedcb289fdced7fbca0226216ab686b994b1dddb8386e8e83f1b8e5b1a4a",
    "delta-bernoulli": "7064fb038f9e31d03989cd7e7a472d121ef9c6199ee8ab9915ca55e4895892bb",
    "generalized-pte": "bfc7c85267adf14bb9d0ab69090e7994200da7f0670432745455d6a76cfaa28b",
}


# sha256 of `digitsum weights <args> --format <fmt>` stdout; pinned so the
# table builder's output stays byte-identical.
WEIGHTS_SHA256 = {
    "--base 7 --order 3": {
        "json": "337698d7e0dfc7101d402c25fd7d84371cc3a4d395696d587e306be078aba8b2",
        "csv": "55343041b8fc1248cfb52cd1bd9e5ac11199d47fc7a79785de07d9c983a87389",
        "text": "aff98a75b6a92b6b1a4fe83c49787f09a08afdca207800342758e46ec73c8ab5",
    },
    "--base 12 --order 2": {
        "json": "0fa99691faf3047b9b781ace4679113be2f320876ae7fc9663f34cb849f2ce6f",
        "csv": "ba1eb71ac741d9a9abccd2872b1fd44a6a15157e185ccc2323df4cc687fc14b6",
        "text": "35704beb5685777949c84c57b61f3bf3e98ca23a22168ed865625fe35a829d28",
    },
    "--base 5 --order 4": {
        "json": "ee3348cebe34e98df3e73147984c739301f15d8a0a1a55e9b17b8677cde38b75",
        "csv": "2d0cf78ab88513506a8059e9329f4ab1a7140a2a28736622f104a180b16160a3",
        "text": "51bcfda37b0d2eeae64c960c83274bd11582d030bcbe466ce2f0ea11175ec20b",
    },
    "--base 2 --order 5 --kind alpha": {
        "json": "f03f4dcc654360fc0f1c89fe9c2034a6c9f295ce54decc765dc2c495aeffcb4a",
        "csv": "1b2ed96dcaccfa858146147a867dc015cfb587232022c34355827c500b8b71eb",
        "text": "2738ef5d20bb82abdfb4c88c295f9e2f84c67e81e3e4a981a5a6cab840766818",
    },
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_lines():
    """Arguments of each `digitsum` line in the README's CLI block, with
    trailing comments stripped."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("digitsum ")]


# `verify --all` is run by acceptance criterion 11.
@pytest.mark.parametrize("argv", [a for a in readme_cli_lines() if "--all" not in a], ids=" ".join)
def test_readme_cli_examples_exit_zero(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == 0, err


class TestParsers:
    def test_cost_accepts_power_notation(self):
        assert parse_cost("2^20") == 2**20
        assert parse_cost("1048576") == 2**20
        with pytest.raises(ValueError):
            parse_cost("0")

    def test_seed_range(self):
        assert parse_seed("42") == 42
        with pytest.raises(ValueError):
            parse_seed("-1")
        with pytest.raises(ValueError):
            parse_seed(str(2**64))

    def test_grid_comma_list(self):
        assert parse_grid("1,1/2,-3") == (Fraction(1), Fraction(1, 2), Fraction(-3))

    def test_grid_ranges(self):
        assert parse_grid("0..3") == (0, 1, 2, 3)
        assert parse_grid("-2..2/2") == (-2, 0, 2)
        assert parse_grid("0..1/1/2") == (0, Fraction(1, 2), 1)
        assert parse_grid("0..3/2/1/2") == (0, Fraction(1, 2), 1, Fraction(3, 2))

    def test_grid_rejects_bad_step(self):
        with pytest.raises(ValueError):
            parse_grid("0..1/0")


class TestWeightsCommand:
    def test_alpha_json(self, capsys):
        code, out, _ = invoke(
            capsys, "weights", "--base", "2", "--order", "2", "--kind", "alpha"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "N": 2,
            "b": 2,
            "kind": "alpha",
            "phi_b": 1,
            "values": [["1"], ["2"], ["2"], ["2"], ["1"]],
        }

    def test_beta_json_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "weights", "--base", "3", "--order", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi_b"] == 2
        assert payload["values"][1] == ["2", "1"]  # 2 + xi
        assert len(payload["values"]) == 3**2 - 1 - 1

    def test_alpha_requires_base_two(self, capsys):
        code, _, err = invoke(
            capsys, "weights", "--base", "3", "--order", "1", "--kind", "alpha"
        )
        assert code == 2
        assert "base 2" in err

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "weights", "--base", "2", "--order", "1", "--kind", "alpha",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["k,c0", "0,1", "1,1"]

    @pytest.mark.parametrize("args,fmt", [
        (args, fmt) for args, digests in WEIGHTS_SHA256.items() for fmt in digests
    ], ids=" ".join)
    def test_output_is_pinned(self, capsys, args, fmt):
        code, out, _ = invoke(capsys, "weights", *args.split(), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == WEIGHTS_SHA256[args][fmt]

    def test_table_build_is_charged(self, capsys):
        # 6^6 - 6 = 46650 entries against a cap of 1000.
        code, out, err = invoke(capsys, "weights", "--base", "6", "--order", "5", "--max-cost", "1000")
        assert code == 3 and err.startswith("error:") and out == ""


class TestVerifyCommand:
    def test_single_identity_json(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "power-sum-n",
            "--base", "2", "--order", "3", "--x", "0", "--y", "1", "--draws", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["equal"] is True
        assert payload[0]["lhs"] == {"b": 2, "coeffs": ["-48"]}
        assert payload[0]["elapsed_ms"] is None

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "--identity", "nope")
        assert code == 2 and "unknown identity" in err

    def test_cost_cap_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "--identity", "difference-identity",
            "--base", "2", "--order", "4", "--max-cost", "4",
        )
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("order", ["5000", "1000000"])
    def test_huge_order_is_refused_at_once(self, capsys, order):
        # b^N has more digits than int -> str allows, and the degree-(N+2) f
        # is drawn only after the charge.
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "verify", "--identity", "difference-identity",
            "--base", "10", "--order", order, "--max-cost", "10",
        )
        assert code == 3 and err.startswith("error:") and "cap is 10" in err and out == ""
        assert time.perf_counter() - start < 5

    def test_env_cost_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DIGITSUM_MAX_COST", "4")
        code, _, _ = invoke(
            capsys, "verify", "--identity", "difference-identity", "--base", "2", "--order", "4"
        )
        assert code == 3

    def test_timings_flag(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "moment0",
            "--base", "3", "--order", "2", "--timings",
        )
        assert code == 0
        assert json.loads(out)[0]["elapsed_ms"] > 0

    def test_text_format_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "joint-line-base2", "--order", "2",
            "--draws", "2", "--format", "text",
        )
        assert code == 0
        assert out.strip().endswith("2/2 identities verified")

    @pytest.mark.parametrize("identity", list(FAMILY_OF))
    def test_default_output_is_pinned(self, capsys, identity):
        code, out, _ = invoke(capsys, "verify", "--identity", identity, "--seed", "42")
        assert code == 0
        assert all(rep["equal"] for rep in json.loads(out))
        assert hashlib.sha256(out.encode()).hexdigest() == IDENTITY_SEED42_SHA256[identity]

    def test_readme_lists_every_identity_and_the_repeated_ones(self):
        text = README.read_text(encoding="utf-8")
        listed = re.search(r"Identity ids: (.*?)\.\n", text, re.S).group(1)
        assert re.findall(r"`([^`]+)`", listed) == list(FAMILY_OF)
        repeated = re.search(r"more than once per point:(.*?)\.", text, re.S).group(1)
        assert re.findall(r"`([^`]+)`", repeated) == [
            name for name, family in FAMILY_OF.items() if family.draws > 1
        ]

    def test_negative_order_is_usage_error(self, capsys):
        with pytest.raises(ValueError):
            verify_betaconv_dual2(2, -1)
        code, _, err = invoke(capsys, "verify", "--identity", "betaconv-dual2", "--order", "-1")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("identity", ["moment0", "moment1", "alpha-moment0", "alpha-moment1"])
    def test_zero_order_names_the_given_order(self, capsys, identity):
        code, _, err = invoke(capsys, "verify", "--identity", identity, "--order", "0")
        assert code == 2 and "order must be >= 1, got 0" in err

    def test_draw_count_is_charged(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--identity", "faulhaber", "--max-cost", "10", "--draws", "11"
        )
        assert code == 3 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        ("moment0", "--base", "7", "--order", "6"),
        ("alpha-moment1", "--order", "8"),
        ("beta-alpha-reduction", "--order", "8"),
    ], ids=lambda argv: argv[0])
    def test_table_build_is_charged(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", "--identity", *argv, "--max-cost", "10")
        assert code == 3 and err.startswith("error:") and out == ""

    def test_order_list_only_for_multi_index_ids(self, capsys):
        code, _, err = invoke(capsys, "verify", "--identity", "moment0", "--order", "3,4")
        assert code == 2 and "one order" in err
        for identity in ("multisum", "multi-power-sum", "multi-mixed-sum"):
            code, out, _ = invoke(capsys, "verify", "--identity", identity, "--order", "1,1,2")
            assert code == 0
            assert json.loads(out)[0]["params"]["N_list"] == [1, 1, 2]

    @pytest.mark.parametrize("identity", ["joint-line-base2", "joint-line-general"])
    def test_given_x2_is_not_redrawn(self, capsys, identity):
        code, out, _ = invoke(capsys, "verify", "--identity", identity, "--x2", "1/2", "--draws", "1")
        assert code == 0 and json.loads(out)[0]["params"]["x2"] == "1/2"
        code, _, err = invoke(capsys, "verify", "--identity", identity, "--x1", "1", "--x2", "1")
        assert code == 2 and "must differ" in err

    def test_general_base_reports_conjectured_constant(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--identity", "joint-line-general",
            "--base", "3", "--order", "2", "--x1", "1", "--x2", "2",
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["equal"] is True
        assert "constant_conjectured" in payload["extras"]
        assert payload["extras"]["conjectured_matches_brute"] is False


class TestPteCommands:
    def test_show_text_contains_certificate(self, capsys):
        code, out, _ = invoke(
            capsys, "pte-show", "--base", "2", "--order", "3", "--x", "1", "--y", "1"
        )
        assert code == 0
        assert "class 0: 0, 5, 7, 8" in out
        assert "class 1: 2, 3, 5, 10" in out
        assert "k=1: 20 = 20" in out
        assert "k=2: 138 = 138" in out
        assert "reduced partition (size 6)" in out

    def test_show_json(self, capsys):
        code, out, _ = invoke(
            capsys, "pte-show", "--base", "2", "--order", "3",
            "--x", "1", "--y", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == [["0", "5", "7", "8"], ["2", "3", "5", "10"]]
        assert payload["reduced"]["classes"] == [["0", "7", "8"], ["2", "3", "10"]]
        assert payload["reduced"]["size"] == 6
        assert payload["valid"] is True

    def test_show_invalid_certificate_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys, "pte-show", "--base", "2", "--order", "3",
            "--x", "0", "--y", "1", "--kmax", "3",
        )
        assert code == 1
        assert "INVALID" in out

    def test_search_json_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "pte-search", "--base", "2", "--order", "3",
            "--x-grid", "0,1", "--y-grid", "1", "--top", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["b"] == 2 and payload["N"] == 3
        best = payload["solutions"][0]
        assert best["x"] == "1" and best["y"] == "1"
        assert best["reduced_size"] == 6
        assert best["classes"] == [["0", "7", "8"], ["2", "3", "10"]]
        assert best["power_sums"] == [["3", "15", "113"], ["3", "15", "113"]]

    def test_search_skips_empty_partitions_by_default(self, capsys):
        argv = ["pte-search", "--base", "2", "--order", "3", "--x-grid=-2..2", "--y-grid", "1,1/2,2",
                "--top", "5", "--format", "text"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1] == "  x=1 y=1 size=6: {0, 7, 8} | {2, 3, 10}"
        assert "size=0" not in out
        code, out, _ = invoke(capsys, *argv, "--min-size", "0")
        assert code == 0
        assert "  x=-1 y=1 size=0: {} | {}" in out.splitlines()

    def test_search_grid_is_charged_before_it_is_built(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "pte-search", "--base", "2", "--order", "2",
            "--x-grid", "0..1/1/100000000", "--y-grid", "1", "--max-cost", "16",
        )
        assert code == 3 and err.startswith("error:") and out == ""
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_search_top_must_be_positive(self, capsys, top):
        code, out, err = invoke(
            capsys, "pte-search", "--base", "2", "--order", "3",
            "--x-grid", "0,1,2", "--y-grid", "1", "--top", top,
        )
        assert code == 2 and err.startswith("error:") and "--top" in err and out == ""

    def test_search_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "pte-search", "--base", "2", "--order", "2",
            "--x-grid", "0..1", "--y-grid", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,y,reduced_size,classes"


class TestBernoulliCommand:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "bernoulli", "--degree", "2")
        assert code == 0
        assert "x^0: 1/6, x^1: -1, x^2: 1" in out

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "bernoulli", "--degree", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"degree": 1, "coeffs": ["-1/2", "1"]}

    def test_degree_is_charged(self, capsys):
        # 3001 * 3002 / 2 Akiyama-Tanigawa steps against a cap of 1.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "bernoulli", "--degree", "3000", "--max-cost", "1")
        assert code == 3 and err.startswith("error:") and out == ""
        assert time.perf_counter() - start < 5


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = invoke(
            capsys, "weights", "--base", "2", "--order", "1", "--kind", "alpha",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["values"] == [["1"], ["1"]]


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "verify", "--bogus")
        assert code == 2
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "difference-identity", "--x", "1/0"],
            ["verify", "--identity", "multisum", "--y-list", "1/0"],
            ["pte-search", "--base", "2", "--order", "2", "--x-grid", "1/0", "--y-grid", "1"],
            ["pte-search", "--base", "2", "--order", "2", "--x-grid", "0..1/1/0", "--y-grid", "1"],
        ],
    )
    def test_zero_denominator(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert "error:" in err
