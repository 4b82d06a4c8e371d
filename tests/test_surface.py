"""The library's public surface: every top-level def or class in src/ is used
by src/ itself (a command, another layer) or is a paper object kept on
purpose.  Code that only tests reach belongs in tests/ (see oracles.py)."""

import ast
import pathlib

import korosum

SRC = pathlib.Path(korosum.__file__).parent

#: Public names with no src/ reference, each kept for a stated reason.
KEEP = {
    "choose_m_prime": "the reduced modulus m' of the differencing step",
    "m_bar": "the modulus gcd(b^tau - 1, m), tau = ord(b, m'), of the differencing step",
    "corollary_constants": "the uniform-decay corollary's constants C, delta",
    "alpha_digits": "the digits of the normal-number candidate alpha",
    "erdos_turan_estimate": "the discrepancy majorant from exponential sums",
    "digit_at": "one digit of a/m, the object the digit statistics count",
    "rows_from_csv": "the reader of the scan report render_report writes",
    "digit_frequencies": "per-digit counts of a/m, timed by the benchmark",
    "ancillary_sequence": "the exact x_n whose floats the discrepancy trace uses",
    "star_discrepancy": "D*_N of any point set, the object of criterion 09",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name


def _referenced(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_public_name_is_used_or_kept():
    trees = _trees()
    used = _referenced(trees)
    unused = sorted(f"{module}:{name}" for module, name in _public_definitions(trees)
                    if name not in used and name not in KEEP)
    assert unused == [], f"public names no src/ code uses (move them to tests/ or delete them): {unused}"


def test_keep_list_names_exist_and_are_unreferenced():
    trees = _trees()
    defined = {name for _, name in _public_definitions(trees)}
    assert set(KEEP) <= defined
    assert not set(KEEP) & _referenced(trees), "a kept name is now used by src/: drop it from KEEP"


def _sites(node, where, wanted):
    """The function (module.name...) around every reference to a name in `wanted`."""
    for child in ast.iter_child_nodes(node):
        inner = f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
        names = ([child.id] if isinstance(child, ast.Name) else [child.attr] if isinstance(child, ast.Attribute)
                 else [a.asname or a.name for a in child.names] if isinstance(child, ast.ImportFrom) else [])
        if wanted & set(names):
            yield inner
        yield from _sites(child, inner, wanted)


def test_cos_and_sin_are_taken_in_phases_alone():
    # every phase factor e(r/m) of every sum comes from one place
    sites = {site for module, tree in _trees().items() for site in _sites(tree, module[:-3], {"cos", "sin"})}
    assert sites == {"sumeval._phases"}
    # the tables of long windows hold _phases' own factors, and only _phases reads them
    tables = {site for module, tree in _trees().items() for site in _sites(tree, module[:-3], {"_phase_table"})}
    assert tables == {"sumeval._phases"}


def test_the_residue_kind_is_chosen_in_powers_alone():
    # int64 or Python ints: one place reads the modulus limit of int64
    # residue products (beside its definition), so every walk, the coset
    # walk and verify's fast path included, serves every modulus; table
    # phases, which need int64 residues, read the residues' dtype instead
    sites = {site for module, tree in _trees().items() for site in _sites(tree, module[:-3], {"_INT64_SAFE_M"})}
    assert sites == {"sumeval", "sumeval._powers"}


def test_the_window_rule_is_read_outside_the_coset_walk():
    # eval_sum_reduced hands the walk only windows of the table rule, so the
    # walk takes one rule; the sums and the verifier's phase vector read it
    sites = {site for module, tree in _trees().items() for site in _sites(tree, module[:-3], {"_tabled"})}
    assert sites == {"sumeval.eval_sum", "sumeval.eval_sum_reduced", "sumeval._inner_sums"}


def test_only_main_and_scan_write_output():
    # every other command handler returns (payload, text lines); main alone
    # prints them and picks the exit status, and scan writes its report
    sites = {site for module, tree in _trees().items() for site in _sites(tree, module[:-3], {"print", "stdout"})}
    assert sites == {"cli.main", "cli._cmd_scan"}


def test_only_digit_frequencies_reads_the_base_cap():
    # a pattern count compares residues with two integer edges and forms no
    # digit; only the frequencies form b r // m, and their base cap (beside
    # its definition) keeps those digits in the residues' own kind
    sites = {site for module, tree in _trees().items()
             for site in _sites(tree, module[:-3], {"_MAX_FREQUENCY_BASE"})}
    assert sites == {"digits", "digits.digit_frequencies"}


def test_the_fold_rule_is_decided_in_fold_windows_alone():
    # whether a full period vanishes, and so which windows a fold takes, is
    # decided in one place; every evaluator reads its list
    sites = {site for module, tree in _trees().items() for site in _sites(tree, module[:-3], {"_vanishing_primes"})}
    assert sites == {"sumeval._fold_windows"}


#: Error classes that no src/ handler catches and that carry no data, each
#: kept for a stated reason.
DISTINCT_ERRORS = {
    "DegenerateRange": "callers of choose_m_prime (perfbench, criterion 05) fall back to another m'",
}


def _caught(trees):
    """Every exception name an except clause in src/ catches."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(k.id if isinstance(k, ast.Name) else k.attr for k in kinds)
    return names


def test_every_error_class_is_told_apart():
    # a class is worth having when a handler catches it, it carries data, or a
    # stated reason keeps it; any other rejection is OutOfRange
    trees = _trees()
    caught = _caught(trees)
    classes = [node for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)]
    carries_data = {c.name for c in classes
                    if any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in c.body)}
    untold = sorted(c.name for c in classes
                    if c.name not in caught | carries_data and c.name not in DISTINCT_ERRORS)
    assert untold == [], f"error classes no caller tells apart (raise OutOfRange instead): {untold}"
    assert set(DISTINCT_ERRORS) <= {c.name for c in classes} - caught - carries_data


#: The only dataclasses in src/, each kept for a stated reason; every other
#: record is a NamedTuple, which costs no generated code at import.
DATACLASSES = {
    "PrimeSet": "validates its primes in __post_init__, caches Q, iterates its primes",
    "RationalInterval": "validates its endpoints in __post_init__",
    "DigitPattern": "validates its base and digits in __post_init__",
    "ScanRow": "read with dataclasses.astuple and asdict by perfbench and the tests",
}


def test_records_are_named_tuples_but_the_kept_dataclasses():
    decorated = {node.name for tree in _trees().values() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)}
    assert decorated == set(DATACLASSES)
