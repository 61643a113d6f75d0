"""CLI surface: formats, exit codes, grids, and the stable JSON shapes."""

import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitsum
from digitsum import cli, findiff, identities, pte, weights
from digitsum.arith import CycloNum, euler_phi
from digitsum.cli import parse_cost, parse_grid, parse_seed, report_to_dict, run
from digitsum.cost import DEFAULT_MAX_COST, CostCapExceeded, block_size
from digitsum.identities import FAMILY_OF, IdentityReport, run_identity, verify_betaconv_dual2
from digitsum.poly import RationalPoly

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

# sha256 of `digitsum verify --all --seed 42 --format <fmt>` stdout; the json
# digest is tests/test_acceptance.py's SUITE_SEED42_SHA256.  All three formats
# print the same report fields in one domain, JSON values plus Fraction and
# CycloNum leaves: json through the CLI's one writer, csv and text from
# report_to_dict rows.
SUITE_SEED42_SHA256 = {
    "csv": "6447e2da001285a2c4c1b7d090cbdd243ada6b041ff46bd555a89ee3fb13b6e0",
    "text": "a998cf592b4b52ef60a21b6b6910e8ff25d4980484fe0801fd49191a3ad66b88",
}


# sha256 of `digitsum weights <args> --format <fmt>` stdout; pinned so the
# table builder's output stays byte-identical.  Bases 2 and 3 are the ones
# where a level has the fewest blocks.
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
    "--base 2 --order 10": {
        "json": "dca54cd305f05b6a49562fa7ab2aa72cb5a72d065d9d0d50c45486277692023f",
    },
    "--base 3 --order 7": {
        "json": "7bb5d6b81f67137e2bc7a87d900e90845275229d96315b86d318001dcc3ace62",
    },
    "--base 2 --order 5 --kind alpha": {
        "json": "f03f4dcc654360fc0f1c89fe9c2034a6c9f295ce54decc765dc2c495aeffcb4a",
        "csv": "1b2ed96dcaccfa858146147a867dc015cfb587232022c34355827c500b8b71eb",
        "text": "2738ef5d20bb82abdfb4c88c295f9e2f84c67e81e3e4a981a5a6cab840766818",
    },
}


# sha256 of `digitsum bernoulli --degree 4 --format json` stdout.
BERNOULLI_DEGREE4_JSON_SHA256 = "4a0d137a15d4ea87991edeccad9aff3051f931e551231904d11bd2cfb34065d0"
# The same command's stdout with --format csv.
BERNOULLI_DEGREE4_CSV_SHA256 = "5519fc316a7e8e4582c060443ed08726f164095991258e74aec09c8b64823316"


# sha256 of the README's `pte-show` and `pte-search` examples' stdout in each
# format, and of a mid-size search whose best point cancels 27 of 81 values
# (x/y = -2) and whose 63 points are cut to 8 by --top; pinned so the integer
# partition core keeps the output byte-identical.
PTE_SHA256 = {
    "pte-show --base 2 --order 3 --x 1 --y 1": {
        "json": "7b5eb736651102890bafde68572a5a9af1ce8fc6ece57c29e3bc702986bedb15",
        "csv": "5ca25b9f644506643714466515edc831d461b89d9c7a69297351ae6ca8312d09",
        "text": "ce8e3c7a4f4d2079f8037552691d41956536c7e28764c64427db661368228e42",
    },
    "pte-search --base 2 --order 3 --x-grid=-2..2 --y-grid 1,1/2,2 --top 5": {
        "json": "54145328c4d3d19d9a4ccde4c9229af84941b376e472067cdab02105cbd38289",
        "csv": "05fefa53f5ff31862d0cd78707a66b756e70ad4ed8e89835507d6904ad0c4a73",
        "text": "6e664b96d31c126ae91298632a999d4829d1d0a0c755c838ff8969ab6d4b080e",
    },
    "pte-search --base 3 --order 4 --x-grid=-3..3 --y-grid 1..5/1/2 --top 8": {
        "json": "397e64fd49cd76c8e1f99f44ae5ae37299ee6d01346adc69a3934b68a589d649",
        "csv": "6d883061b5bf092ce7f234f0b9cf75b77e244c24d155f5ce213fc517833f0838",
        "text": "977eb22d7da77dd01e264e49510f81607f326b63d90f795815d56b9eba3f57ea",
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


def test_no_command_names_the_subcommand_argument(capsys):
    code, out, err = invoke(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: digitsum [-h] {verify,weights,pte-show,pte-search,bernoulli} ...\n")
    assert err.endswith("error: the following arguments are required: subcommand\n")


# `verify --all` is run by acceptance criterion 11.
@pytest.mark.parametrize("argv", [a for a in readme_cli_lines() if "--all" not in a], ids=" ".join)
def test_readme_cli_examples_exit_zero(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == 0, err


def readme_library_example() -> str:
    text = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    """The README's library example is the public contract; run it as written."""
    exec(compile(readme_library_example(), "README.md", "exec"), {})


def test_package_root_exports_exactly_the_readme_names():
    """The root re-exports only what the library example imports; every other
    public name has one import path, its own module."""
    imported = re.search(r"from digitsum import \((.*?)\)", readme_library_example(), re.S).group(1)
    names = sorted(name.strip() for name in imported.split(",") if name.strip())
    assert sorted(digitsum.__all__) == names
    public = {name for name in dir(digitsum) if not name.startswith("_")}
    extra = {name for name in public - set(names) if not isinstance(getattr(digitsum, name), types.ModuleType)}
    assert extra == set()


class TestPackageRoot:
    """The root resolves its five names on first access (PEP 562)."""

    @pytest.mark.parametrize("name,home", [
        ("RationalPoly", "poly"),
        ("generalized_partition", "pte"),
        ("verify_power_sums", "pte"),
        ("cancel_common", "pte"),
        ("verify_difference_identity", "identities"),
    ])
    def test_each_name_is_its_home_module_attribute(self, name, home):
        assert getattr(digitsum, name) is getattr(importlib.import_module(f"digitsum.{home}"), name)

    def test_dir_lists_every_export(self):
        assert set(digitsum.__all__) <= set(dir(digitsum))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from digitsum import *", namespace)
        assert {name: namespace[name] for name in digitsum.__all__} == {
            name: getattr(digitsum, name) for name in digitsum.__all__
        }

    def test_unknown_name_is_an_attribute_error_that_names_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            digitsum.no_such_name  # noqa: B018
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from digitsum import no_such_name", {})


# What a verify run never executes: the dataclass machinery and inspect,
# which it imports, csv, the partition module, and typing, whose names the
# package takes from collections.abc and collections.namedtuple instead.
NOT_FOR_VERIFY = ("dataclasses", "inspect", "csv", "digitsum.pte", "typing")


def loaded_after(code: str) -> set[str]:
    """Which of NOT_FOR_VERIFY a fresh interpreter holds after running code.
    ``-S`` skips site, whose .pth hooks may import any of them; the package
    is found on PYTHONPATH, at the path this suite imported it from."""
    script = f"import sys\n{code}\nprint(*(m for m in {NOT_FOR_VERIFY!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(digitsum.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=30, env=env
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


class TestImportGraph:
    """Every command pays for importing digitsum.cli, so that import loads
    only what a verify run executes."""

    def test_importing_the_cli_loads_nothing_verify_skips(self):
        assert loaded_after("import digitsum.cli") == set()

    def test_a_verify_run_loads_nothing_it_skips(self):
        argv = ["verify", "--identity", "faulhaber", "--output", os.devnull]
        assert loaded_after(f"import digitsum.cli\nassert digitsum.cli.run({argv!r}) == 0") == set()

    def test_pte_show_loads_pte(self):
        argv = ["pte-show", "--base", "2", "--order", "3", "--x", "1", "--y", "1", "--output", os.devnull]
        assert "digitsum.pte" in loaded_after(f"import digitsum.cli\nassert digitsum.cli.run({argv!r}) == 0")


class TestParsers:
    def test_cost_accepts_power_notation(self):
        assert parse_cost("2^20") == 2**20
        assert parse_cost("1048576") == 2**20
        with pytest.raises(ValueError):
            parse_cost("0")

    def test_cost_ceiling_is_2_to_the_64(self):
        assert parse_cost("2^64") == parse_cost(str(2**64)) == 2**64
        for text in ("2^65", str(2**64 + 1), "-7^3000001", "1" + "0" * 100000):
            with pytest.raises(ValueError, match="between 1 and 2\\^64"):
                parse_cost(text)

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

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.fractions(-5, 5, max_denominator=6),
        hi=st.fractions(-5, 5, max_denominator=6),
        step=st.fractions(Fraction(1, 6), 3, max_denominator=6),
    )
    def test_grid_range_matches_repeated_addition(self, lo, hi, step):
        expected, current = [], lo
        while current <= hi:  # empty when hi < lo
            expected.append(current)
            current += step
        grid = parse_grid(f"{lo}..{hi.numerator}/{hi.denominator}/{step.numerator}/{step.denominator}")
        assert grid == tuple(expected) and all(type(value) is Fraction for value in grid)

    def test_grid_rejects_too_many_or_empty_tokens(self):
        with pytest.raises(ValueError, match="cannot parse grid range"):
            parse_grid("0..1/2/3/4/5")
        with pytest.raises(ValueError):
            parse_grid("0..3/")

    def test_grid_rejects_bad_step(self):
        with pytest.raises(ValueError):
            parse_grid("0..1/0")


# Keys and strings lean on what JSON must escape: quotes, backslashes,
# control characters and non-ASCII, lone surrogates among them.
json_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7fé€\U0001f600\ud800'), st.characters()))
json_leaves = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=False, allow_infinity=False) | json_text
)
json_trees = st.recursive(
    json_leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(json_text, max_size=4)
        | st.dictionaries(json_text, children, max_size=4)
    ),
    max_leaves=30,
)


# CycloNums with integer and rational coordinates of either sign.
cyclo_nums = st.integers(2, 12).flatmap(
    lambda b: st.lists(
        st.integers(-(10**30), 10**30) | st.fractions(max_denominator=60),
        min_size=euler_phi(b), max_size=euler_phi(b),
    ).map(lambda coeffs: CycloNum(b, coeffs))
)
# Every kind of value a verifier puts in a report field: exact numbers, flags,
# text, and lists or tuples of them.
report_values = st.recursive(
    st.integers(-(2**100), 2**100) | st.booleans() | st.none() | st.fractions() | cyclo_nums
    | json_text,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)
report_fields = st.dictionaries(json_text, report_values, max_size=4)


class _Opaque:
    """A value the JSON writer cannot encode, with a repr free of its address."""

    def __repr__(self):
        return "_Opaque()"


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    def test_matches_json_dumps(self, payload):
        assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [
        {}, [], (), [{}, [], ()], {"": {"a": [[]]}}, ["x", ["y", ("z",)]], [1.5e300, -0.0, 2**200],
    ])
    def test_empty_and_nested_containers(self, payload):
        assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    # Fraction and CycloNum leaves write as the stdlib writes their
    # scalar_to_json form.
    @settings(max_examples=100, deadline=None)
    @given(report_values)
    def test_value_matches_scalar_to_json(self, value):
        expected = json.dumps(cli.scalar_to_json(value), indent=2, sort_keys=True) + "\n"
        assert cli._json(value) == expected

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), Fraction(-7), [Fraction(3, 4), (Fraction(0),)],
        CycloNum(2, [5]), CycloNum(3, [Fraction(1, 2), -1]), [CycloNum(12, [1, 0, Fraction(-2, 3), 4])],
    ], ids=repr)
    def test_exact_leaf_examples(self, value):
        assert cli._json(value) == json.dumps(cli.scalar_to_json(value), indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        {1: "a"}, {"a": {None: 1}}, {"a": {1, 2}}, b"bytes", [_Opaque()],
    ], ids=repr)
    def test_unsupported_input_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            cli._json(payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_is_a_value_error(self, value):
        with pytest.raises(ValueError):
            cli._json([value])

    def test_leaves_no_reference_cycle(self):
        # With the collector off, nothing the writer made may wait for it.
        payload = {"a": [1, {"b": ("c", None, [[], {}])}], "d": [[[2.5, True]]]}
        gc.collect()
        gc.disable()
        try:
            cli._json(payload)
            assert gc.collect() == 0
        finally:
            gc.enable()


synthetic_reports = st.builds(
    IdentityReport,
    identity=json_text,
    params=report_fields,
    lhs=report_values,
    rhs=report_values,
    equal=st.booleans(),
    elapsed_ms=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    extras=st.none() | report_fields,
)


def rows_json(reports, timings):
    """The stdlib's text for the reports' report_to_dict rows."""
    rows = [report_to_dict(rep, include_timing=timings) for rep in reports]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def exact_value(value) -> bool:
    """A value a report may hold: exact numbers, flags, text, and lists or
    tuples of them; a float would print but would not be exact."""
    if type(value) in (list, tuple):
        return all(map(exact_value, value))
    return value is None or type(value) in (str, int, bool, Fraction, CycloNum)


def exact_fields(fields) -> bool:
    return type(fields) is dict and all(type(k) is str and exact_value(v) for k, v in fields.items())


class TestReportJson:
    """The json format writes each report's fields through the one writer,
    byte for byte what the stdlib writes for its report_to_dict rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(FAMILY_OF)), seed=st.integers(0, 2**64 - 1),
        draws=st.integers(1, 2), timings=st.booleans(),
    )
    def test_verifier_reports(self, name, seed, draws, timings):
        reports = run_identity(name, None, draws, seed)
        assert cli._format_reports(reports, "json", timings) == rows_json(reports, timings)

    @settings(max_examples=60, deadline=None)
    @given(reports=st.lists(synthetic_reports, min_size=1, max_size=2), timings=st.booleans())
    def test_synthetic_reports(self, reports, timings):
        assert cli._format_reports(reports, "json", timings) == rows_json(reports, timings)

    def test_no_reports(self):
        assert cli._format_reports([], "json", True) == "[]\n" == rows_json([], True)

    @pytest.mark.parametrize("name", [None, *sorted(FAMILY_OF)])
    def test_verifiers_report_only_exact_values(self, name):
        # None is the seed-42 suite; each id runs its CLI default of 3 draws.
        reports = identities.run_suite(42) if name is None else run_identity(name, None, 3, 42)
        for rep in reports:
            assert type(rep.identity) is str and type(rep.equal) is bool, rep
            assert exact_value(rep.lhs) and exact_value(rep.rhs), rep
            assert exact_fields(rep.params) and (rep.extras is None or exact_fields(rep.extras)), rep

    # Every format prints from the same fields in the same domain, so each
    # refuses what the json writer refuses.
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("fields", [
        {"params": {"x": _Opaque()}}, {"lhs": _Opaque()}, {"extras": {"x": [1, _Opaque()]}},
    ], ids=repr)
    def test_opaque_field_is_a_type_error(self, fields, fmt):
        report = IdentityReport(**{"identity": "moment0", "params": {}, "lhs": 1, "rhs": 1, "equal": True, **fields})
        with pytest.raises(TypeError):
            cli._format_reports([report], fmt, False)

    def test_finite_float_field_is_a_number(self):
        report = IdentityReport("moment0", {"t": 0.25}, 1.5, -0.0, True, elapsed_ms=3.75)
        out = cli._format_reports([report], "json", True)
        assert json.loads(out)[0] == {
            "identity": "moment0", "params": {"t": 0.25}, "lhs": 1.5, "rhs": -0.0,
            "equal": True, "elapsed_ms": 3.75,
        }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_timing_is_a_value_error(self, value):
        report = IdentityReport("moment0", {}, 1, 1, True, elapsed_ms=value)
        assert cli._format_reports([report], "json", False) == rows_json([report], False)
        with pytest.raises(ValueError):
            cli._format_reports([report], "json", True)

    def test_suite_peak_memory(self):
        # Python 3.10-3.13 trace 1.3-1.7 MB here; building every row dict and
        # a part list for the whole run before joining it traced 2.8-3.3 MB.
        script = (
            "import os, tracemalloc\nimport digitsum.cli\ntracemalloc.start()\n"
            "assert digitsum.cli.run(['verify', '--all', '--seed', '42', '--output', os.devnull]) == 0\n"
            "print(tracemalloc.get_traced_memory()[1])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(digitsum.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 2.2e6


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
        pytest.param(args, fmt, id=f"{args} {fmt}")
        for args, digests in WEIGHTS_SHA256.items()
        for fmt in digests
    ])
    def test_output_is_pinned(self, capsys, args, fmt):
        code, out, _ = invoke(capsys, "weights", *args.split(), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == WEIGHTS_SHA256[args][fmt]

    def test_table_build_is_charged(self, capsys):
        # 6^6 - 6 = 46650 entries against a cap of 1000.
        code, out, err = invoke(capsys, "weights", "--base", "6", "--order", "5", "--max-cost", "1000")
        assert code == 3 and err.startswith("error:") and out == ""


# Per id, flags that make `verify --identity` a usage error, with the message.
R_FOLD_USAGE_ERRORS = [
    (("--base", "1"), "base must be >= 2, got 1"),
    (("--order", ","), "need at least one summation index"),
    (("--order", "0,1"), "all orders must be >= 1"),
    (("--order", "1,2", "--y-list", "1"), "y_list length must match N_list"),
]
VERIFY_USAGE_ERRORS = {
    "multisum": R_FOLD_USAGE_ERRORS,
    "multi-power-sum": R_FOLD_USAGE_ERRORS,
    "multi-mixed-sum": [
        *R_FOLD_USAGE_ERRORS, (("--order", "1,2", "--x-list", "1"), "x_list length must match N_list")
    ],
    "mixed-sum-vanishing": [
        (("--order", "2", "--l", "5"), "need 0 <= l < N, got l=5, N=2"),
        (("--order", "0"), "order must be >= 1, got 0"),
    ],
    "joint-vanishing": [(("--order", "1"), "order must be >= 2, got 1")],
}


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

    @pytest.mark.parametrize("argv", [
        pytest.param(("difference-identity", "--base", "10", "--order", "5000"), id="5000"),
        pytest.param(("difference-identity", "--base", "10", "--order", "1000000"), id="1000000"),
        pytest.param(("multisum", "--order", "3000000,1"), id="multisum-3000000,1"),
    ])
    def test_huge_order_is_refused_at_once(self, capsys, argv):
        # b^N has more digits than int -> str allows, and f, whose degree
        # grows with the order, is drawn only after the charge.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--identity", *argv, "--max-cost", "10")
        assert code == 3 and err.startswith("error:") and "cap is 10" in err and out == ""
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "identity", [name for name, family in FAMILY_OF.items() if "b" in family.defaults[name]]
    )
    def test_base_one_is_usage_error_for_every_id(self, capsys, identity):
        # The block is checked before it is charged, so b = 1 is refused as a
        # usage error even when the cap would also refuse the work.
        argv = ("verify", "--identity", identity, "--base", "1", "--order", "30", "--max-cost", "10")
        assert invoke(capsys, *argv) == (2, "", "error: base must be >= 2, got 1\n")

    @pytest.mark.parametrize("argv,code", [
        # f, of degree N - 1, must be drawn only after the charge.
        ("generalized-pte --order 3000000", 3),
        # The degree-N monomial must be built only after the charge.
        ("power-sum-n --order 3000000", 3),
        # 1^N passes any charge, so the base must be checked before f is drawn.
        ("difference-identity --base 1 --order 3000000", 2),
    ])
    def test_block_is_checked_and_charged_before_the_draw(self, argv, code):
        # A child process, so that a hang fails at the timeout instead of
        # stalling the suite.  A refusal takes well under 1 s; a draw or
        # build before the charge takes 5 s or more.
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "digitsum", "verify", "--identity", *argv.split()],
            capture_output=True, text=True, timeout=5,
        )
        assert time.perf_counter() - start < 2.5
        assert result.returncode == code and result.stdout == ""
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        # 14 base-2 and 5 base-5 digit positions through the brute-force
        # kernel's fold, and the joint path at order 6.
        "mixed-sum-closed-form --base 2 --order 14",
        "generalized-pte --base 5 --order 5",
        "joint-line-base2 --order 6",
    ])
    def test_deep_folds_equal_their_closed_forms(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", "--identity", *argv.split())
        assert (code, err) == (0, "") and all(rep["equal"] for rep in json.loads(out))

    @pytest.mark.parametrize("identity", list(VERIFY_USAGE_ERRORS))
    def test_usage_errors_name_the_bad_input(self, capsys, identity):
        for argv, message in VERIFY_USAGE_ERRORS[identity]:
            assert invoke(capsys, "verify", "--identity", identity, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("base,order,cost", [("7", "1", 329), ("2", "11", 24576)])
    def test_betaconv_dual1_charges_its_table_and_passes(self, capsys, base, order, cost):
        # The order-N table's b^(N+1) - N - 1 entries times b (329 at b=7, N=1), then
        # the N+1 running-sum passes over b^N weights (24576 at b=2, N=11).
        argv = ("verify", "--identity", "betaconv-dual1", "--base", base, "--order", order)
        assert invoke(capsys, *argv, "--max-cost", str(cost - 1))[0] == 3
        assert invoke(capsys, *argv, "--max-cost", str(cost))[0] == 0

    @pytest.mark.parametrize("flag,env", [("7^3000000", None), ("2^65", None), (None, str(2**64 + 1))])
    def test_cost_cap_above_2_to_the_64_is_refused_at_once(self, capsys, monkeypatch, flag, env):
        # 7^3000000 took 1.5 s to build before it was refused by its exponent.
        if env is not None:
            monkeypatch.setenv("DIGITSUM_MAX_COST", env)
        argv = ("bernoulli", "--degree", "1") + (("--max-cost", flag) if flag else ())
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: --max-cost " if flag else "error: $DIGITSUM_MAX_COST ")
        assert invoke(capsys, "bernoulli", "--degree", "1", "--max-cost", "2^64")[0] == 0

    @pytest.mark.parametrize("flag,env", [("0^-1", None), ("1^-1", None), ("2^-1", None), (None, "0^-1")])
    def test_negative_cost_exponent_is_usage_error(self, capsys, monkeypatch, flag, env):
        # The exponent is checked before the power is built, so none of these
        # becomes a ZeroDivisionError, a float cap or a fractional cap.
        if env is not None:
            monkeypatch.setenv("DIGITSUM_MAX_COST", env)
        argv = ("bernoulli", "--degree", "1") + (("--max-cost", flag) if flag else ())
        source = f"--max-cost '{flag}'" if flag else f"$DIGITSUM_MAX_COST '{env}'"
        assert invoke(capsys, *argv) == (2, "", f"error: {source}: exponent must be >= 0, got -1\n")

    def test_bad_cost_cap_names_its_source(self, capsys, monkeypatch):
        expected = "'2^x': invalid literal for int() with base 10: 'x'\n"
        assert invoke(capsys, "verify", "--all", "--max-cost", "2^x") == (2, "", "error: --max-cost " + expected)
        monkeypatch.setenv("DIGITSUM_MAX_COST", "2^x")
        assert invoke(capsys, "verify", "--all") == (2, "", "error: $DIGITSUM_MAX_COST " + expected)

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
        elapsed = [rep["elapsed_ms"] for rep in json.loads(out)]
        assert elapsed and all(type(ms) is float and 0 < ms < math.inf for ms in elapsed)

    def test_timings_add_a_csv_column(self, capsys):
        argv = ("verify", "--identity", "moment0", "--format", "csv")
        _, plain, _ = invoke(capsys, *argv)
        code, out, _ = invoke(capsys, *argv, "--timings")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["identity", "params", "lhs", "rhs", "equal", "elapsed_ms"]
        assert plain.splitlines()[0] == ",".join(header[:-1])
        assert rows and all(float(row[-1]) > 0 for row in rows)

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

    @pytest.mark.parametrize("fmt", list(SUITE_SEED42_SHA256))
    def test_suite_output_is_pinned(self, capsys, fmt):
        code, out, _ = invoke(capsys, "verify", "--all", "--seed", "42", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SEED42_SHA256[fmt]

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

    @pytest.mark.parametrize("draws", ["0", "-7"])
    def test_draw_count_must_be_positive(self, capsys, draws):
        code, out, err = invoke(capsys, "verify", "--identity", "faulhaber", "--draws", draws)
        assert code == 2 and out == ""
        assert err == f"error: --draws must be >= 1, got {draws}\n"

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


# An order whose block 7^BIG the default cap refuses by bit length alone.
BIG = 3_000_000
HALVES = (BIG // 2, BIG // 2)
ONE = RationalPoly([1])


class TestOversizedBlocks:
    @pytest.mark.parametrize("argv", [
        "verify --identity power-sum-n --base 7 --order 30000000",
        "verify --identity power-sum-n --base 1000 --order 3000000",
        "weights --base 7 --order 30000000",
        "pte-show --base 7 --order 30000000 --x 1 --y 1",
        "pte-search --base 7 --order 30000000 --x-grid 1 --y-grid 1",
        # The ids fixed at base 2 build 2^N, 2^(N+1) or (2^N)^2 in their charge.
        "verify --identity alpha-moment0 --order 3000000000",
        "verify --identity alpha-moment1 --order 3000000000",
        "verify --identity beta-alpha-reduction --order 3000000000",
        "verify --identity joint-line-base2 --order 3000000000",
    ])
    def test_refused_before_the_power_is_built(self, argv):
        # A child process, so that a build fails at the timeout instead of
        # stalling the suite.  Building 7^30000000 takes about a minute; the
        # refusal by bit length takes well under 1 s.
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "digitsum", *argv.split()], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 2
        assert result.returncode == 3 and result.stdout == ""
        assert result.stderr.startswith("error: evaluation needs more than 2^")

    @settings(max_examples=300)
    @given(b=st.integers(2, 2**20), e=st.integers(-3, 200), cap=st.integers(1, 2**64))
    def test_bit_length_check_refuses_only_what_the_charge_would(self, b, e, cap):
        # Every block is charged at least b^e / 2: a refusal must be one the
        # exact charge would make too, and name a true lower bound of it.  A
        # block it lets through has size b^e.
        try:
            assert block_size(b, e, cap) == b**e
        except CostCapExceeded as exc:
            k = int(re.search(r"more than 2\^(\d+) ", str(exc)).group(1))
            assert b**e // 2 >= 2**k > cap and exc.cap == cap

    @pytest.mark.parametrize("fn,args", [
        # b = 7 and N = 3000000, or orders (1500000, 1500000); 7^3000000
        # takes over 1 s to build, the refusal by bit length well under that.
        pytest.param(findiff.lhs_sum, (ONE, 0, 1, 7, BIG), id="lhs_sum"),
        pytest.param(findiff.weighted_rhs, (ONE, 0, 1, 7, BIG), id="weighted_rhs"),
        pytest.param(identities.verify_moment, (7, BIG, 0), id="verify_moment"),
        pytest.param(identities.verify_betaconv_dual1, (7, BIG), id="verify_betaconv_dual1"),
        pytest.param(identities.verify_betaconv_dual2, (7, BIG), id="verify_betaconv_dual2"),
        pytest.param(identities.verify_multisum, (7, HALVES, ONE, 0, (1, 1)), id="verify_multisum"),
        pytest.param(identities.verify_multi_power_sum, (7, HALVES, 0, (1, 1)), id="verify_multi_power_sum"),
        pytest.param(identities.mixed_power_sum, (7, BIG, 1, 0, 1), id="mixed_power_sum"),
        pytest.param(identities.verify_mixed_recurrence, (7, BIG, 1, 0, 1), id="verify_mixed_recurrence"),
        pytest.param(identities.verify_multi_mixed_sum, (7, HALVES, (0, 0), (1, 1)), id="verify_multi_mixed_sum"),
        pytest.param(identities.verify_generalized_pte, (7, BIG, ONE, 0, 1), id="verify_generalized_pte"),
        pytest.param(pte.generalized_partition, (7, BIG, 1, 1), id="generalized_partition"),
        pytest.param(weights.beta_from_convolution, (7, BIG), id="beta_from_convolution"),
    ])
    def test_library_refuses_before_the_power_is_built(self, fn, args):
        start = time.perf_counter()
        with pytest.raises(CostCapExceeded, match=r"needs more than 2\^"):
            fn(*args)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("argv,message", [
        # A cost that is a power of 2 is named in full up to 2^64, as is the
        # largest cap, and a larger cost by the largest power of 2 below it.
        pytest.param(
            "--order 64 --max-cost 2^63",
            "needs 18446744073709551616 summand evaluations, cap is 9223372036854775808",
            id="cost-2^64",
        ),
        pytest.param(
            "--order 65 --max-cost 2^64",
            "needs more than 2^64 summand evaluations, cap is 18446744073709551616",
            id="cap-2^64",
        ),
    ])
    def test_refusal_names_costs_and_caps_exactly(self, capsys, argv, message):
        argv = ("verify", "--identity", "generalized-pte", "--base", "2", *argv.split())
        assert invoke(capsys, *argv) == (3, "", f"error: evaluation {message}\n")


class TestPteCommands:
    @pytest.mark.parametrize("flag", ["--x-grid", "--y-grid"])
    @pytest.mark.parametrize("spec,message", [
        pytest.param("0..3/", "Invalid literal for Fraction", id="empty-step"),
        pytest.param("0..1/2/3/4/5", "cannot parse grid range '0..1/2/3/4/5'", id="five-tokens"),
        pytest.param("3..1", "grid is empty", id="empty-range"),
        pytest.param(",", "grid is empty", id="empty-list"),
    ])
    def test_bad_grid_names_its_flag(self, capsys, flag, spec, message):
        grids = {"--x-grid": "0,1", "--y-grid": "1", flag: spec}
        argv = [arg for item in grids.items() for arg in item]
        code, out, err = invoke(capsys, "pte-search", "--base", "2", "--order", "3", *argv)
        assert code == 2 and out == "" and err.startswith(f"error: {flag} {spec!r}: ") and message in err

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

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(2, 4), N=st.integers(1, 3),
        x=st.fractions(min_value=-3, max_value=3, max_denominator=6),
        y=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    )
    def test_class_texts_are_the_expanded_values(self, b, N, x, y):
        partition = pte.generalized_partition(b, N, x, y)
        for part in (partition, pte.cancel_common(partition)):
            assert cli._class_texts(part) == [[str(v) for v in values] for values in part.expanded()]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_show_renders_each_value_once(self, capsys, monkeypatch, fmt):
        # Nothing cancels at x = 1/3, y = 1/7, so the reduced copy is the whole
        # partition: its texts come from the partition's, not a second pass.
        calls = []
        ratio_text = cli._ratio_text
        monkeypatch.setattr(cli, "_ratio_text", lambda n, den: calls.append(n) or ratio_text(n, den))
        code, out, _ = invoke(
            capsys, "pte-show", "--base", "3", "--order", "2",
            "--x", "1/3", "--y", "1/7", "--format", fmt,
        )
        assert code == 0 and "reduced" in out
        assert len(calls) == len(set(calls)) == 9

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

    @pytest.mark.parametrize(
        "argv",
        [
            # 1000 * 1000 points * 2^2 values * 2 powers against a cap of 1000.
            "pte-search --base 2 --order 2 --x-grid 0..999 --y-grid 0..999 --max-cost 1000",
            # 2^3 values * (10^8 + 1) powers against the default cap.
            "pte-search --base 2 --order 3 --x-grid 1 --y-grid 1 --kmax 100000000",
            "pte-show --base 2 --order 3 --x 1 --y 1 --kmax 100000000",
            # 2^20 + 60 * 2^19 summands over the 61 mixed sums, times 61 powers, against
            # the default cap of 2^20.
            "verify --identity mixed-sum-recurrence --base 2 --order 20 --l 60",
            # (2000 + 2)(2000 + 3)/2 Bernoulli recurrence steps for B_2001 against the default cap.
            "verify --identity delta-bernoulli --order 2000",
            # (2^3 + 2000 * 2^2) summands times 2001 powers; 7.5 s and exit 0
            # when the recurrence was priced by its summands alone.
            "verify --identity mixed-sum-recurrence --base 2 --order 3 --l 2000",
            # A table is priced at its entries times b.  The xi-steps of the
            # order-0 table took 17.7 s at b = 4096, and 1.9 s at b = 2000.
            "weights --base 4096 --order 0",
            "weights --base 100000 --order 0",
            "verify --identity moment0 --base 2000 --order 1",
            # The closed sides are charged for the order-(N-1) tables they
            # read.  Charged their blocks alone, these ran 2.2-4.0 s and exited 0.
            "verify --identity difference-identity --base 2000 --order 1",
            "verify --identity betaconv-dual2 --base 2000 --order 1",
            "verify --identity multisum --base 2000 --order 1",
            # Below b^2 summands the kernel's residue walk and the b x phi(b)
            # power table cost more than the block: charged the block alone,
            # these ran 9.2 s and 0.95 s and exited 0.
            "verify --identity power-sum-n --base 4000 --order 1",
            "pte-show --base 2000 --order 1 --x 1 --y 1",
        ],
    )
    def test_work_is_charged_before_it_runs(self, argv):
        # A child process, so that a hang fails at the timeout instead of stalling the suite.
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "digitsum", *argv.split()], capture_output=True, text=True, timeout=5
        )
        assert time.perf_counter() - start < 1
        assert result.returncode == 3 and result.stdout == ""
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
        cap = argv.split("--max-cost ")[1] if "--max-cost" in argv else DEFAULT_MAX_COST
        assert result.stderr.endswith(f", cap is {cap}\n")

    @pytest.mark.parametrize("args,fmt", [
        (args, fmt) for args, digests in PTE_SHA256.items() for fmt in digests
    ], ids=lambda value: value)
    def test_output_is_pinned(self, capsys, args, fmt):
        code, out, _ = invoke(capsys, *shlex.split(args), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PTE_SHA256[args][fmt]

    @pytest.mark.parametrize("argv", [
        "pte-show --base 2 --order 18 --x 1 --y 1 --kmax -1",
        "pte-search --base 2 --order 18 --x-grid 0..9 --y-grid 1 --kmax -1",
    ])
    def test_negative_kmax_is_refused_before_any_build(self, capsys, monkeypatch, argv):
        def build(*args, **kwargs):
            pytest.fail("built before --kmax was checked")

        monkeypatch.setattr(pte, "generalized_partition", build)
        monkeypatch.setattr(cli, "_grid_flag", build)
        code, out, err = invoke(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == "error: --kmax must be >= 0, got -1\n"

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

    def test_json_is_pinned(self, capsys):
        # Indented and key-sorted by the writer every other subcommand uses.
        code, out, _ = invoke(capsys, "bernoulli", "--degree", "4", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BERNOULLI_DEGREE4_JSON_SHA256

    def test_csv_is_pinned(self, capsys):
        code, out, _ = invoke(capsys, "bernoulli", "--degree", "4", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BERNOULLI_DEGREE4_CSV_SHA256

    def test_degree_is_charged(self, capsys):
        # 3001 * 3002 / 2 Akiyama-Tanigawa steps against a cap of 1.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "bernoulli", "--degree", "3000", "--max-cost", "1")
        assert code == 3 and err.startswith("error:") and out == ""
        assert time.perf_counter() - start < 5


# One command per subcommand, with the exit code each ends in.
OUTPUT_CASES = [
    ("verify --identity moment0 --seed 42 --format csv", 0),
    ("weights --base 3 --order 2 --format text", 0),
    ("pte-show --base 2 --order 3 --x 0 --y 1 --kmax 3", 1),
    ("pte-search --base 2 --order 3 --x-grid=-2..2 --y-grid 1,1/2,2 --top 5", 0),
    ("bernoulli --degree 4 --format json", 0),
]


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = invoke(
            capsys, "weights", "--base", "2", "--order", "1", "--kind", "alpha",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["values"] == [["1"], ["1"]]

    @pytest.mark.parametrize("argv,expected_code", OUTPUT_CASES)
    def test_file_gets_the_bytes_stdout_gets(self, capsys, tmp_path, argv, expected_code):
        code, out, _ = invoke(capsys, *argv.split())
        assert code == expected_code and out
        target = tmp_path / "out"
        code, empty, _ = invoke(capsys, *argv.split(), "--output", str(target))
        assert code == expected_code and empty == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [argv for argv, _ in OUTPUT_CASES])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out"
        code, out, err = invoke(capsys, *argv.split(), "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "No such file or directory" in err
        assert not target.parent.exists()


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        "weights --base 2 --order 1",
        "pte-show --base 2 --order 3 --x 1 --y 1",
        "pte-search --base 2 --order 3 --x-grid 1 --y-grid 1",
        "bernoulli --degree 2",
    ])
    def test_only_verify_takes_a_seed(self, capsys, argv):
        code, out, err = invoke(capsys, *argv.split(), "--seed", "3")
        assert code == 2 and out == "" and "unrecognized arguments: --seed 3" in err

    @pytest.mark.parametrize("text", ["abc", "-1", str(2**64)])
    def test_bad_seed_names_the_flag(self, capsys, text):
        code, out, err = invoke(capsys, "verify", "--all", f"--seed={text}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --seed {text!r}: ") and err.count("\n") == 1


class TestOutOfMemory:
    def test_exits_3_with_one_error_line(self):
        # The child caps its own address space at 300 MB; at b = 2, N = 21
        # the closed side alone would need more, well inside a 2^40 cost cap.
        pytest.importorskip("resource")
        script = (
            "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
            "import digitsum.cli\nsys.exit(digitsum.cli.run(['verify', '--identity', 'difference-identity',"
            " '--base', '2', '--order', '21', '--max-cost', '2^40']))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(digitsum.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == f"error: verify ran out of memory under a cost cap of {2**40}\n"


class TestIntStringLimit:
    def test_result_past_the_limit_prints_in_full(self, capsys):
        # x = 10^3000 makes class 1 hold x + 1 and its square, 6001 digits,
        # past Python's default 4300-digit int -> str limit.
        x = "1" + "0" * 3000
        x_plus_1 = "1" + "0" * 2999 + "1"
        square = "1" + "0" * 2999 + "2" + "0" * 2999 + "1"
        code, out, err = invoke(
            capsys, "pte-show", "--base", "2", "--order", "1", "--x", x, "--y", "1", "--kmax", "2"
        )
        assert code == 1 and err == ""
        assert out.splitlines() == [
            f"base=2 order=1 x={x} y=1",
            "class 0: 0",
            f"class 1: {x_plus_1}",
            "power sums (k = 0..2):",
            "  k=0: 1 = 1",
            f"  k=1: 0 = {x_plus_1}",
            f"  k=2: 0 = {square}",
            "certificate: INVALID (k <= 2)",
            "reduced partition (size 2):",
            "reduced class 0: 0",
            f"reduced class 1: {x_plus_1}",
        ]

    def test_decimal_exponent_past_the_limit_is_refused_at_once(self):
        # Fraction("1e10000000") builds 10^10000000, about 13 s, where a
        # literal of that many digits is refused by the limit.  A child
        # process, so that a build fails at the timeout.
        argv = ["pte-show", "--base", "2", "--order", "3", "--x", "1e10000000", "--y", "1"]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "digitsum", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 2
        assert result.returncode == 2 and result.stdout == "" and "--x" in result.stderr

    def test_decimal_exponent_up_to_the_limit_parses(self):
        assert cli.parse_fraction("1e4300") == 10**4300
        assert cli.parse_fraction("-2.5E-4300") == Fraction(-5, 2 * 10**4300)
        for spec in ("1e4301", "1E-4301", "0..1e4301"):
            with pytest.raises(ValueError, match="above 4300 in magnitude"):
                parse_grid(spec)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str limit")
    @pytest.mark.parametrize("argv,expected_code", [
        ("bernoulli --degree 2", 0),
        ("pte-show --base 2 --order 3 --x 0 --y 1 --kmax 3", 1),
        ("weights --base 3 --order 1 --kind alpha", 2),
        ("bernoulli --degree 3000 --max-cost 1", 3),
    ])
    def test_run_restores_the_limit(self, capsys, argv, expected_code):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, _, _ = invoke(capsys, *argv.split())
            assert code == expected_code
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)


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
