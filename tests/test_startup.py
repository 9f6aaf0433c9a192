"""What a CLI run loads, and the value types that keep start-up small.

Each import-graph test runs in a fresh interpreter with the package's
source directory on PYTHONPATH, and compares sys.modules before and after
the code under test.  No test asserts on modules that the interpreter's
own start-up may already hold (typing, random, re, collections and the
like); dataclasses is checked only as "loaded by the end" or "not newly
loaded".
"""

import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import presort
from presort.census import CensusRow
from presort.core import FAMILIES, PIVOT_KINDS, Sequence
from presort.generators import GenSpec
from presort.measures import Decomposition, Profile
from presort.sorters import PivotStrategy, SortOutcome

SRC = Path(presort.__file__).resolve().parents[1]

# Every name `from presort import X` gave before exports became lazy.
EXPORTED = {
    "MAX_CENSUS_N", "CensusRow", "census_worst_cases", "enumerate_census", "type_count_lower_bound",
    "KEY_MAX", "KEY_MIN", "Meter", "Sequence", "SequenceFormatError", "dump_sequence", "load_sequence",
    "sorted_check", "verify_sorted_stable_permutation",
    "FAMILIES", "GenSpec", "generate", "realize_sorted_type",
    "Decomposition", "Profile", "count_runs", "decompose_maximal", "entropy", "entropy_bound",
    "inversions", "max_displacement", "profile",
    "PIVOT_KINDS", "PivotStrategy", "SortOutcome", "blocked_sort", "exact_median", "floyd_rivest",
    "insertion_sort", "natural_merge_sort", "partition_sort", "random_middle", "select_exact_median",
    "select_floyd_rivest", "select_random_middle", "stable_three_way_partition",
}  # fmt: skip

CLI_MODULES = {"presort", "presort.cli", "presort.core"}


def loads(code: str, cwd: Path = SRC) -> tuple[set, set]:
    """(modules code newly loads, all modules loaded after it), from a fresh interpreter."""
    child = "\n".join(
        [
            "import json, sys",
            "before = set(sys.modules)",
            code,
            "print(json.dumps([sorted(set(sys.modules) - before), sorted(sys.modules)]))",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", child], env=env, cwd=cwd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    new, after = json.loads(done.stdout.splitlines()[-1])
    return set(new), set(after)


def presort_modules(names: set) -> set:
    return {name for name in names if name == "presort" or name.startswith("presort.")}


def test_import_presort_loads_no_submodule():
    new, _ = loads("import presort")
    assert presort_modules(new) == {"presort"}


def test_import_cli_loads_core_only():
    new, _ = loads("import presort.cli")
    assert presort_modules(new) == CLI_MODULES
    assert "dataclasses" not in new


@pytest.mark.parametrize(
    "argv, extra, dataclasses_loaded",
    [
        (["sort", "--in", "in.txt", "--algo", "psort", "--out", "out.txt"], {"presort.sorters"}, False),
        (["measure", "--in", "in.txt"], {"presort.measures"}, False),
        (["census", "--n", "5"], {"presort.census"}, False),
        (["census", "--n", "5", "--worstcase", "psort-median"], {"presort.census", "presort.sorters"}, False),
        (["gen", "--family", "random", "--n", "20", "--out", "gen.txt"], {"presort.generators"}, True),
        (
            ["bench", "--families", "random", "--sizes", "20", "--algos", "natmerge", "--no-time"],
            {"presort.generators", "presort.measures", "presort.sorters"},
            True,
        ),
    ],
    ids=["sort", "measure", "census", "census-worstcase", "gen", "bench"],
)
def test_each_command_loads_its_own_modules(tmp_path, argv, extra, dataclasses_loaded):
    (tmp_path / "in.txt").write_text("3\n1\n2\n")
    code = (
        "import contextlib, io\n"
        "from presort import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    new, after = loads(code, cwd=tmp_path)
    assert presort_modules(new) == CLI_MODULES | extra
    if dataclasses_loaded:
        assert "dataclasses" in after
    else:
        assert "dataclasses" not in new


def test_exports_are_the_objects_their_modules_define():
    assert set(presort.__all__) == EXPORTED
    assert set(presort._EXPORTS) == EXPORTED
    for name, module in presort._EXPORTS.items():
        defining = importlib.import_module(f"presort.{module}")
        assert hasattr(defining, name), (module, name)
        assert getattr(presort, name) is getattr(defining, name), name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(presort.__all__) <= set(dir(presort))
    with pytest.raises(AttributeError, match="no_such_name"):
        presort.no_such_name
    assert not hasattr(presort, "_check_sizes")


def test_families_read_from_core_or_generators():
    import presort.generators

    assert presort.FAMILIES is FAMILIES is presort.generators.FAMILIES


def test_pivot_kinds_read_from_core_or_sorters():
    import presort.sorters

    assert presort.PIVOT_KINDS is PIVOT_KINDS is presort.sorters.PIVOT_KINDS


# -- value types ---------------------------------------------------------------

OUT = Sequence.from_keys([1])

VALUE_TYPES = [
    (
        SortOutcome,
        ("output", "comparisons", "moves", "pivot_retries", "max_recursion_depth", "is_sorted"),
        (OUT, 1, 2),
        (0, 0, True),
    ),
    (PivotStrategy, ("kind", "seed"), ("median",), (0,)),
    (
        Profile,
        ("n", "sizes", "block_count", "entropy", "bound", "inversions", "displacement", "runs", "distinct_keys"),
        (1, (1,), 1, 0.0, 2.0, 0, 0, 1, 1),
        (),
    ),
    (Decomposition, ("blocks", "sizes"), (((0,),), (1,)), ()),
    (CensusRow, ("sizes", "nu", "count_bound", "info_bits"), ((1,), 1, 1.0, 0), ()),
]


@pytest.mark.parametrize("cls, fields, required, defaults", VALUE_TYPES, ids=lambda v: getattr(v, "__name__", None))
def test_value_type_fields_and_defaults(cls, fields, required, defaults):
    assert cls._fields == fields
    assert cls.__doc__ and cls.__doc__.strip()
    value = cls(*required)
    assert tuple(value) == required + defaults
    assert value == cls(**dict(zip(fields, required)))
    if required[:-1]:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@pytest.mark.parametrize("cls, fields, required, defaults", VALUE_TYPES, ids=lambda v: getattr(v, "__name__", None))
def test_value_types_are_immutable(cls, fields, required, defaults):
    value = cls(*required)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], required[0])
    with pytest.raises(AttributeError):
        value.not_a_field = 1


def test_pivot_strategy_rejects_unknown_kind():
    message = f"unknown pivot kind 'bogus', expected one of {PIVOT_KINDS}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PivotStrategy("bogus")
    with pytest.raises(ValueError, match=re.escape(message)):
        PivotStrategy(kind="bogus", seed=3)
    with pytest.raises(ValueError, match=re.escape(message)):
        PivotStrategy("fr", 3)._replace(kind="bogus")
    assert PivotStrategy("fr", 3)._replace(seed=4) == PivotStrategy("fr", 4)


def test_genspec_stays_a_dataclass():
    # perfbench and tests/test_generators.py call dataclasses.replace on it.
    assert dataclasses.is_dataclass(GenSpec)
