"""Repository-level checks: every demo and README example runs, every
exported name exists, the package holds no assert, and the CLI loads only
what a subcommand runs."""

import ast
import dataclasses
import importlib
import json
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

from powergroups.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("index", range(len(_readme_python_blocks())))
def test_readme_python_block_runs(index, capsys):
    exec(compile(_readme_python_blocks()[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no runtime invariant may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "powergroups").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_layout_lists_every_module():
    # The README's layout block names each module once; a module added or
    # removed without it shows here.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^src/powergroups/\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    listed = re.findall(r"^  (\w+\.py) ", block.group(1), flags=re.MULTILINE)
    modules = sorted(p.name for p in (ROOT / "src" / "powergroups").glob("*.py"))
    assert sorted(listed) == [m for m in modules if m != "__init__.py"]
    assert len(listed) == len(set(listed))


def test_every_all_entry_resolves():
    missing = []
    for path in sorted((ROOT / "src" / "powergroups").glob("*.py")):
        name = "powergroups" if path.stem == "__init__" else f"powergroups.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _carrier_holders(classes):
    """Names of the dataclasses among classes with a field that holds a
    FiniteGroup: one annotated with FiniteGroup, or with another holder
    except PowerGroupFamily, whose carrier is the one its members belong to."""
    holders = set()
    grew = True
    while grew:
        grew = False
        names = {"FiniteGroup"} | holders - {"PowerGroupFamily"}
        for cls in classes:
            words = {w for f in dataclasses.fields(cls) for w in re.findall(r"\w+", str(f.type))}
            if cls.__name__ not in holders and words & names:
                holders.add(cls.__name__)
                grew = True
    return holders


def test_only_a_family_names_its_carrier():
    # Subsets and subgroups are int masks over the group each function takes
    # beside them, so no mask travels with a second group that could
    # disagree.  A family's parent is the one stored carrier.
    @dataclasses.dataclass
    class Subset:
        parent: "FiniteGroup"
        members: int

    @dataclasses.dataclass
    class Descriptor:
        carrier: "Subset"
        family: "PowerGroupFamily"

    @dataclasses.dataclass
    class Report:
        family: "Optional[PowerGroupFamily]"

    assert _carrier_holders([Report, Descriptor, Subset]) == {"Subset", "Descriptor"}
    classes = []
    for path in sorted((ROOT / "src" / "powergroups").glob("*.py")):
        module = importlib.import_module("powergroups" if path.stem == "__init__" else f"powergroups.{path.stem}")
        classes += [
            v for v in vars(module).values()
            if isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == module.__name__
        ]
    assert {"FiniteGroup", "PowerGroupFamily", "LocalMonoid", "CosetGroupDescriptor"} <= {c.__name__ for c in classes}
    assert _carrier_holders(classes) == {"PowerGroupFamily"}


def _calls(source, callee):
    """(enclosing function or None, line) of each call of callee, e.g.
    CapExceededError(...)."""
    calls = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == callee:
                    calls.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return calls


def test_only_check_cap_raises_cap_exceeded():
    # Every size cap goes through errors.check_cap, so each one is checked
    # and worded the same way.
    mutant = "def f(n):\n    if n > 3:\n        raise errors.CapExceededError(n)\n"
    assert _calls(mutant, "CapExceededError") == [("f", 3)]
    found = [
        (path.name, func)
        for path in sorted((ROOT / "src" / "powergroups").glob("*.py"))
        for func, _ in _calls(path.read_text(encoding="utf-8"), "CapExceededError")
    ]
    assert found == [("errors.py", "check_cap")]


def test_group_names_are_the_one_way_to_a_named_group():
    # group_from_name parses each name straight to its table: _group_atom is
    # the one caller of the table builders, and no catalog(family, *params)
    # constructor sits beside it.
    builders = ("_cyclic_table", "_dihedral_table", "_symmetric_table", "_quaternion8_table")
    mutant = "def catalog(family, n):\n    return _cyclic_table(n)\n"
    assert _calls(mutant, "_cyclic_table") == [("catalog", 2)]
    paths = sorted((ROOT / "src" / "powergroups").glob("*.py"))
    found = sorted(
        (path.name, func, callee)
        for path in paths
        for callee in builders
        for func, _ in _calls(path.read_text(encoding="utf-8"), callee)
    )
    assert found == sorted(("groups.py", "_group_atom", b) for b in builders)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "catalog"
            for node in ast.walk(tree)
        ), path.name
        assert _calls(path.read_text(encoding="utf-8"), "catalog") == [], path.name
        module = importlib.import_module("powergroups" if path.stem == "__init__" else f"powergroups.{path.stem}")
        assert "catalog" not in getattr(module, "__all__", ()) and not hasattr(module, "catalog"), path.name


def test_membership_bits_are_read_through_one_window():
    # zset_window_mask is the one reader of membership (and the one place its
    # width is capped): it builds windows from masks, and the word doubling
    # behind it serves only the window and the canonical form.  zset_contains
    # recurses once for a bounded-above set, and the {naturals} demo reads two
    # single elements.
    def calls(callee):
        return sorted(
            (path.name, func)
            for path in sorted((ROOT / "src" / "powergroups").glob("*.py"))
            for func, _ in _calls(path.read_text(encoding="utf-8"), callee)
        )

    assert calls("zset_contains") == [
        ("zsets.py", "power_group_of_naturals_demo"),
        ("zsets.py", "power_group_of_naturals_demo"),
        ("zsets.py", "zset_contains"),
    ]
    assert calls("_repeat") == [
        ("zsets.py", "_canonical"),
        ("zsets.py", "zset_window_mask"),
        ("zsets.py", "zset_window_mask"),
    ]


def _reachable(sources, roots):
    """Names of the package functions reachable from roots, by name: an edge
    runs from a function to every function (or method, or property) whose
    name its body mentions, and to a class's __init__ and __post_init__ when
    it names the class.  Same-named methods of different classes are merged,
    so the result over-approximates what a call can reach."""

    def mentioned(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    refs = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                refs.setdefault(node.name, set()).update(mentioned(node))
            elif isinstance(node, ast.ClassDef):
                names = refs.setdefault(node.name, set())
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__post_init__"):
                        names.update(mentioned(item))
    seen, stack = set(), [r for r in roots if r in refs]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(n for n in refs[name] if n in refs and n not in seen)
    return seen


def _package_sources():
    return [p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "powergroups").glob("*.py"))]


def test_integer_sets_are_added_in_one_place():
    # _sum_bounded_below is the one exact sum of sets bounded on one side:
    # zset_sum calls it directly or on the mirrors of a bounded-above sum, and
    # additive_closure builds its idempotents through zset_sum.  The windowed
    # oracle that re-checks every sum reaches none of that code.
    def callers(callee, sources):
        return {(name, func) for name, source in sources for func, _ in _calls(source, callee)}

    paths = sorted((ROOT / "src" / "powergroups").glob("*.py"))
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in paths]
    mutant = "def additive_closure(gens):\n    return _sum_bounded_below(a, b)\n"
    assert callers("_sum_bounded_below", [("zsets.py", mutant)]) == {("zsets.py", "additive_closure")}
    assert callers("_sum_bounded_below", sources) == {("zsets.py", "zset_sum")}
    assert ("zsets.py", "additive_closure") in callers("zset_sum", sources)
    sum_code = {"zset_sum", "_sum_bounded_below", "additive_closure"}
    assert "_sum_bounded_below" in _reachable([s for _, s in sources], ("additive_closure",))
    assert not sum_code & _reachable([s for _, s in sources], ("minkowski_window_sum",))


def test_coset_growth_stays_off_the_validation_path():
    # _coset_grow needs associativity, and so does is_subgroup_mask, which
    # grows <S> by cosets: nothing that runs before a table is known to be a
    # group (the axiom check, its generators, closure_mask) may reach either;
    # closure_mask serves those instead.
    roots = ("_group_of_table", "_greedy_generators", "closure_mask")
    needs_groups = {"_coset_grow", "is_subgroup_mask"}
    mutant = "def closure_mask(t, s):\n    return _coset_grow(t, s, (), 0)\n\ndef _coset_grow(t, h, g, x):\n    return h\n"
    assert "_coset_grow" in _reachable([mutant], roots)
    sources = _package_sources()
    assert "_coset_grow" in _reachable(sources, ("subgroup_lattice",))
    assert "_coset_grow" in _reachable(sources, ("is_subgroup_mask",))
    assert not needs_groups & _reachable(sources, roots)
    # A mutant axiom check that tests a subgroup is caught.
    groups = (ROOT / "src" / "powergroups" / "groups.py").read_text(encoding="utf-8")
    line = "    identity = _identity_of(t)\n"
    assert groups.count(line) == 1
    mutated = groups.replace(line, line + "    is_subgroup_mask(None, 1)\n")
    assert needs_groups <= _reachable([mutated if s == groups else s for s in sources], roots)


def test_oracles_share_no_code_with_the_census():
    # The idempotent search and the exhaustive scan check the census, so no
    # path from them may reach its lattice, coset growth, subgroup verdicts,
    # normal-subgroup test or anything in classify; a lattice that loses a
    # subgroup would otherwise lose it in the oracle too.
    pkg = ROOT / "src" / "powergroups"
    classify = ast.parse((pkg / "classify.py").read_text(encoding="utf-8"))
    census = {"subgroup_lattice", "_coset_grow", "is_subgroup_mask", "normal_subgroups_of"}
    census |= {n.name for n in classify.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    roots = ("all_power_groups", "brute_force_power_groups")
    sources = _package_sources()
    assert {"subgroup_lattice", "_coset_grow"} <= _reachable(sources, ("enumerate_subquotients",))
    assert not census & _reachable(sources, roots)
    # A mutant oracle that lists unit-group subgroups from the lattice is caught.
    search = (pkg / "search.py").read_text(encoding="utf-8")
    line = "    unit_masks = u.elements\n"
    assert search.count(line) == 1
    mutant = search.replace(line, line + "    subgroup_lattice(u.abstract_table, u.identity_index)\n")
    mutated = [mutant if s == search else s for s in sources]
    assert "subgroup_lattice" in _reachable(mutated, roots)

    # Only the suites and the package facade import the oracle module.
    def imports_search(node):
        if isinstance(node, ast.Import):
            return any(a.name == "powergroups.search" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            if node.module in ("search", "powergroups.search"):
                return True
            return node.module in (None, "powergroups") and any(a.name == "search" for a in node.names)
        return False

    importers = [
        path.name
        for path in sorted(pkg.glob("*.py"))
        if any(imports_search(n) for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert importers == ["__init__.py", "suites.py"]
    assert imports_search(ast.parse("from . import search").body[0])


def test_family_classification_never_reads_normalizers():
    # match_subquotient and the census record flags (_classify, which both
    # _record and the line writer census_lines call) re-derive (H, N) from the
    # family alone; the lattice and normalizers behind the enumeration must
    # not feed them.  Nor may they feed the subgroup verdicts those checks
    # read: is_subgroup_mask decides each mask by its own coset growth, and
    # its per-carrier memo holds only what it decided.
    lattice = {"subgroup_masks", "subgroup_lattice", "normalizers", "_normalizer"}
    roots = ("match_subquotient", "_classify", "_record", "census_lines", "is_subgroup_mask")
    sources = _package_sources()
    assert lattice <= _reachable(sources, ("enumerate_subquotients",))
    assert not lattice & _reachable(sources, roots)
    # A mutant memo that trusts the lattice is caught.
    groups = (ROOT / "src" / "powergroups" / "groups.py").read_text(encoding="utf-8")
    line = "    verdict = verdicts.get(mask)\n"
    assert groups.count(line) == 1
    mutant = groups.replace(line, "    verdict = verdicts.get(mask, mask in g.subgroup_masks or None)\n")
    mutated = [mutant if s == groups else s for s in sources]
    assert "subgroup_masks" in _reachable(mutated, ("is_subgroup_mask",))


def test_enumeration_walks_cosets_and_tests_normality_in_one_place_each():
    # _coset_masks is the one left-coset walk (no element -> coset map sits
    # beside it), and the enumeration reads the kernels of each H from
    # normal_subgroups_of, the one copy of the test N <= H <= N_G(N).
    sources = _package_sources()
    assert not any("_translates" in s for s in sources)
    reached = _reachable(sources, ("enumerate_subquotients",))
    assert {"_coset_masks", "normal_subgroups_of"} <= reached


def test_subquotient_listing_builds_no_family_per_pair():
    # subquotients prints masks, so it lists its pairs through
    # enumerate_subquotients, which reads each pair's cosets off its kernel's
    # checked cosets; the quotient tables (_coset_family), the H/N families
    # (_restrict) and their validation (_family_from_table), which the census
    # builds, must stay off that path.
    pkg = ROOT / "src" / "powergroups"
    cli = (pkg / "cli.py").read_text(encoding="utf-8")
    assert [func for func, _ in _calls(cli, "enumerate_subquotients")] == ["cmd_subquotients"]
    sources = _package_sources()
    tables = {"_restrict", "_coset_family", "_family_from_table"}
    reached = _reachable(sources, ("cmd_subquotients",))
    assert {"enumerate_subquotients", "_kernel_cosets"} <= reached
    assert not tables & reached
    assert tables <= _reachable(sources, ("cmd_enum",))
    # Mutant listings that build every pair's family, or every kernel's
    # quotient table, are caught.
    classify = (pkg / "classify.py").read_text(encoding="utf-8")
    text = "(SubquotientDescriptor(carrier=h, kernel=n), _blocks_inside(cosets, n, h))"
    per_pair = "(SubquotientDescriptor(carrier=h, kernel=n), _restrict(_coset_family(g, cosets), h).elements)"
    pairs = "for h, n, cosets in _subquotient_pairs(g)\n"
    for old, new in ((text, per_pair), (pairs, pairs.replace("(g)", "(g, _coset_family)"))):
        assert classify.count(old) == 1
        mutant = classify.replace(old, new)
        reached = _reachable([mutant if s == classify else s for s in sources], ("cmd_subquotients",))
        assert {"_coset_family", "_family_from_table"} <= reached


def test_subquotient_listing_validates_one_table_per_kernel(monkeypatch, capsys):
    # The census validates a quotient table per kernel; the listing, which
    # reads each kernel's checked cosets, validates none.
    import powergroups.classify as classify
    import powergroups.groups as groups

    tables = []
    real = groups._family_from_table

    def counting(parent, elements, table):
        tables.append(elements)
        return real(parent, elements, table)

    monkeypatch.setattr(groups, "_family_from_table", counting)
    monkeypatch.setattr(classify, "_family_from_table", counting)
    assert main(["subquotients", "--group", "S4", "--max-order", "24"]) == 0
    assert capsys.readouterr().err == "group=S4 subquotients=93\n"
    assert len(tables) == 0
    assert main(["enum", "--group", "S4", "--max-order", "24"]) == 0
    assert len(tables) >= 30


def test_family_classification_closes_no_generators():
    # match_subquotient decides normality on the left cosets it builds anyway,
    # so classifying a census record closes no generating set.  The
    # normalizers test one element per coset of N, so they close and grow
    # nothing either; the closures keep serving the isomorphism search.
    roots = ("match_subquotient", "_classify", "_record", "census_lines")
    closures = {"closure_mask", "_greedy_generators", "generating_set", "_normalized_by"}
    sources = _package_sources()
    assert not (closures | {"_coset_grow"}) & _reachable(sources, ("_normalizer",))
    assert closures - {"_normalized_by"} <= _reachable(sources, ("are_isomorphic",))
    assert not closures & _reachable(sources, roots)
    line = "    cosets = _coset_masks(g, hmask, nmask)\n"
    classify = (ROOT / "src" / "powergroups" / "classify.py").read_text(encoding="utf-8")
    assert line in classify
    mutant = classify.replace(line, "    _normalized_by(g, nmask, generating_set(g, hmask))\n" + line)
    mutated = [mutant if s == classify else s for s in sources]
    assert closures <= _reachable(mutated, roots)


def _module_level_caches(source):
    """Names of the functools caches (cache, lru_cache) made outside any
    function body of source: as decorators of module or class level functions
    that take arguments, or as calls.  Each would keep its entries, carriers
    included, for the life of the process.  A function of no arguments holds
    one value, so its cache is allowed."""
    def is_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        return getattr(node, "id", getattr(node, "attr", None)) in ("cache", "lru_cache")

    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                takes = a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg
                found.extend(child.name for d in child.decorator_list if is_cache(d) and takes)
                continue  # a cache made inside a call dies with the call
            if isinstance(child, ast.Call) and is_cache(child):
                found.append(ast.unparse(child))
            visit(child)

    visit(ast.parse(source))
    return found


def test_no_module_level_cache_outlives_its_carrier():
    # Masks, element tuples, verdicts and validated tables are cached on the
    # FiniteGroup they belong to and freed with it.  A module-level cache
    # would keep every carrier's entries: one raised the subquotients
    # benchmark's peak memory to 32-33 MiB.
    mutant = (
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def members(mask):\n    return mask\n"
        "class G:\n    @functools.cache\n    def f(self):\n        return 0\n"
        "text = functools.cache(str)\n"
        "@functools.cache\n"
        "def build_parser():\n    return 0\n"
        "def per_call(g):\n    return functools.cache(str)\n"
    )
    assert _module_level_caches(mutant) == ["members", "f", "functools.cache(str)"]
    found = [
        (path.name, name)
        for path in sorted((ROOT / "src" / "powergroups").glob("*.py"))
        for name in _module_level_caches(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# Modules a finite subcommand never needs: the integer-set and rational-cut
# models, the suites that drive them, and fractions (qcuts' number type).
LAZY_MODULES = ("powergroups.zsets", "powergroups.qcuts", "powergroups.suites", "fractions")

_FRESH_CLI = (
    "import json, sys\n"
    "import powergroups.cli as cli\n"
    "imported = set(sys.modules)\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps({\n"
    "    'code': code,\n"
    "    'lazy': [m for m in %r if m in sys.modules],\n"
    "    'loaded_by_main': sorted(m for m in set(sys.modules) - imported if m.startswith('powergroups')),\n"
    "}))\n"
) % (LAZY_MODULES,)


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--group", "D4"],
        ["subquotients", "--group", "S4", "--max-order", "24"],
        ["catalog", "list"],
        ["underlies", "--g1", "S3", "--g2", "C2"],
        ["underlies", "--matrix", "default"],
    ],
    ids=" ".join,
)
def test_finite_commands_load_only_the_finite_core(argv):
    # import powergroups.cli (what the benchmark's setup_s times) loads every
    # package module these commands run, and nothing from the infinite side.
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "lazy": [], "loaded_by_main": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["zset", "sum", "BB(0;;1;1)", "TS(2;1)", "--window", "8"],
        ["qcuts", "witness", "--trials", "20"],
        ["verify", "oracle-equivalence"],
    ],
    ids=" ".join,
)
def test_lazily_loaded_commands_match_in_a_fresh_process(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "powergroups.cli", *argv], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
