import functools
import glob
import math
import os
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcslat import blocks, embed, match
from tcslat import lattice as lat


def test_rank1_catalog_loads_17_records():
    cat = blocks.rank1_catalog()
    assert len(cat) == 17


def test_table2_catalog_loads_10_records():
    cat = blocks.table2_catalog()
    assert len(cat) == 10
    assert set(cat.ids()) == {f"Ex7.{n}" for n in range(3, 13)}


def test_rank2_and_table6():
    assert len(blocks.rank2_catalog()) == 6
    t6 = blocks.table6_catalog()
    assert len(t6) == 12
    rec = t6["polytope-3282"]
    assert rec.gramless and rec.rank == 14 and rec.ell() == 2


def test_table6_ell_consistent_with_disc():
    # stored ell matches the invariant-factor count of the stored divisors
    for rec in blocks.table6_catalog():
        disc = rec.meta["disc"]
        # merge elementary divisors into invariant factors: count = max p-multiplicity
        from collections import Counter

        mult = Counter()
        for d in disc:
            f = {}
            n = d
            p = 2
            while p * p <= n:
                while n % p == 0:
                    f[p] = f.get(p, 0) + 1
                    n //= p
                p += 1
            if n > 1:
                f[n] = f.get(n, 0) + 1
            for p in f:
                mult[p] += 1
        assert rec.ell_N == max(mult.values())


def test_validate_rank1_all_bundled():
    cat = blocks.rank1_catalog()
    for rec in cat:
        ok, reason = blocks.validate_rank1(rec)
        assert ok, f"{rec.id}: {reason}"


def test_validate_rank1_examples():
    cat = blocks.rank1_catalog()
    v5 = cat["7.1_5^2"]
    assert v5.meta["r"] == 2 and v5.meta["d"] == 5 and v5.b3_Z == 42
    q4 = cat["7.1_4^1"]
    assert q4.b3_Z == 66
    corrupted = blocks.BlockRecord(
        id="bad", kind="fano_rank1", n_gram=[[4]], anticanonical_class=[1],
        b3_Z=64, meta={"r": 1, "d": 4, "b3_Y": 60},
    )
    ok, reason = blocks.validate_rank1(corrupted)
    assert not ok and "b3_Z" in reason


def test_all_bundled_records_pass_invariants():
    for cat in (blocks.rank1_catalog(), blocks.table2_catalog(), blocks.rank2_catalog()):
        for rec in cat:
            L = rec.lattice()
            assert L.is_even()
            assert lat.signature(L) == (1, L.rank - 1)
            assert L.norm(rec.anticanonical_class) > 0
            assert rec.b3_Z % 2 == 0
            for v in rec.div_c2:
                assert v % 2 == 0


def test_table2_spot_values():
    cat = blocks.table2_catalog()
    assert cat["Ex7.6"].lattice().gram == ((0, 4), (4, 4))
    assert cat["Ex7.6"].lattice().norm(cat["Ex7.6"].anticanonical_class) == 4
    assert cat["Ex7.8"].rk_K == 3
    assert cat["Ex7.11"].rk_K == 12
    for rid in ("Ex7.3", "Ex7.4", "Ex7.5", "Ex7.6", "Ex7.7", "Ex7.10", "Ex7.12"):
        assert cat[rid].rk_K == 0
    assert lat.discriminant_group(cat["Ex7.7"].lattice()).invariant_factors == [3] * 5


def test_rank2_spot_values():
    cat = blocks.rank2_catalog()
    assert cat["MM2-24"].lattice().gram == ((2, 5), (5, 2))
    assert cat["MM2-24"].anticanonical_class == (1, 1)
    assert cat["MM2-21"].div_c2_mod_Aperp == 4


def test_reject_odd_diagonal():
    bad = """schema = 1

id = bad
kind = fano_rank1
gram = [[3]]
A = [1]
b3_Z = 10
"""
    with pytest.raises(blocks.CatalogError, match="evenness"):
        blocks.parse_catalog_text(bad)


def test_reject_odd_div_c2():
    bad = """schema = 1

id = bad
kind = semifano_small_res
minus_k3 = 4
gram = [[4]]
A = [1]
b3_Z = 10
div_c2 = {5}
"""
    with pytest.raises(blocks.CatalogError, match="div_c2"):
        blocks.parse_catalog_text(bad)


def test_every_field_table_key_is_documented():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "catalog-format.md")
    with open(path, encoding="utf-8") as fh:
        doc = fh.read()
    assert [key for key in (*blocks.RECORD_FIELDS, *blocks.CONFIG_FIELDS) if f"`{key}`" not in doc] == []


def test_reject_missing_schema():
    with pytest.raises(blocks.CatalogError, match="schema"):
        blocks.parse_catalog_text("id = x\nkind = fano_rank1\n")


def test_error_carries_line_number():
    bad = "schema = 1\n\nid = bad\nkind = fano_rank1\ngram = [[4]]\nA = [1]\nb3_Z = 65\n"
    with pytest.raises(blocks.CatalogError, match=":3"):
        blocks.parse_catalog_text(bad)


def test_burkhardt_structure_matches_catalog():
    T, t_rows, n_basis = match._burkhardt()
    L = embed.k3_lattice()
    NL = lat.Sublattice(L, n_basis).lattice()
    rec = blocks.table2_catalog()["Ex7.7"]
    assert NL.gram == rec.n_gram
    assert lat.signature(NL) == (1, 15)
    # T's own basis carries the block Gram A2(-1) + U(3) + U(3)
    assert T.gram == lat.Sublattice(L, t_rows).induced_gram()
    assert T.gram == lat.direct_sum(lat.A2(-1), lat.U(3), lat.U(3)).gram
    # complement of N is exactly the placed T
    back = lat.orthogonal_complement(lat.Sublattice(L, n_basis))
    assert back.same_module(lat.Sublattice(L, t_rows))


def test_env_override(tmp_path, monkeypatch):
    src = blocks.rank1_catalog()
    text = "schema = 1\n\n" + "\n".join(
        [
            "id = only",
            "kind = fano_rank1",
            "name = t",
            "r = 1",
            "d = 4",
            "minus_k3 = 4",
            "b3_Y = 60",
            "gram = [[4]]",
            "A = [1]",
            "b3_Z = 66",
            "rk_K = 0",
            "div_c2 = {4}",
            "e = 0",
        ]
    ) + "\n"
    (tmp_path / "rank1.blocks").write_text(text)
    monkeypatch.setenv("TCS_TABLES_DIR", str(tmp_path))
    assert len(blocks.rank1_catalog()) == 1
    monkeypatch.delenv("TCS_TABLES_DIR")
    assert len(blocks.rank1_catalog()) == len(src)


def test_catalog_records_are_immutable_and_shared():
    first = blocks.full_catalog()
    assert blocks.full_catalog() is first and blocks.all_catalogs()["MM2-6"] is first["MM2-6"]
    rec = first["7.1_1^4"]
    assert (rec.n_gram, rec.anticanonical_class, rec.meta["r"]) == (((4,),), (4,), 4)
    assert rec.lattice() is rec.lattice() and rec.lattice().gram is rec.n_gram
    with pytest.raises(AttributeError, match="immutable"):
        rec.n_gram = [[6]]
    with pytest.raises(TypeError):
        rec.n_gram[0][0] += 2
    with pytest.raises(TypeError):
        rec.anticanonical_class[0] += 1
    with pytest.raises(TypeError):
        rec.meta["r"] = 99
    with pytest.raises(AttributeError):
        first["MM2-6"].n_gram.append([0])
    with pytest.raises(TypeError):
        first.records["x"] = rec
    again = blocks.full_catalog()
    assert again["7.1_1^4"].meta == {"r": 4, "d": 1, "b3_Y": 0, "name": "P3"}
    assert again["MM2-6"].n_gram == ((2, 4), (4, 2)) and "x" not in again.ids()


def test_two_full_catalog_calls_parse_each_bundled_table_once(monkeypatch):
    monkeypatch.delenv("TCS_TABLES_DIR", raising=False)
    parsed = []
    real = blocks.parse_catalog_text
    monkeypatch.setattr(blocks, "parse_catalog_text", lambda text, path: parsed.append(path) or real(text, path))
    monkeypatch.setattr(blocks, "_bundled", functools.cache(blocks._bundled.__wrapped__))
    assert blocks.full_catalog() is blocks.full_catalog()
    assert sorted(parsed) == ["tables/rank1.blocks", "tables/rank2.blocks", "tables/table2.blocks"]


def test_catalog_cache_hit_equals_a_fresh_parse(monkeypatch):
    cached = blocks.all_catalogs()
    # under the override every load reads and parses the file anew
    monkeypatch.setenv("TCS_TABLES_DIR", os.path.join(os.path.dirname(blocks.__file__), "tables"))
    parsed = blocks.all_catalogs()
    assert parsed is not cached and parsed["MM2-6"] is not cached["MM2-6"]
    assert cached.provenance == parsed.provenance
    assert [vars(rec) for rec in cached] == [vars(rec) for rec in parsed]


def test_catalog_cache_rereads_a_rewritten_override(tmp_path, monkeypatch):
    record = "schema = 1\n\nid = x\nkind = fano_rank1\ngram = [[4]]\nA = [1]\nb3_Z = {b3}\n"
    path = tmp_path / "rank1.blocks"
    path.write_text(record.format(b3=66))
    monkeypatch.setenv("TCS_TABLES_DIR", str(tmp_path))
    assert blocks.rank1_catalog()["x"].b3_Z == 66
    path.write_text(record.format(b3=68))
    assert blocks.rank1_catalog()["x"].b3_Z == 68
    path.write_text(record.format(b3=67))
    with pytest.raises(blocks.CatalogError, match="b3_Z even"):
        blocks.rank1_catalog()


def test_reader_rejects_duplicate_keys(tmp_path):
    with pytest.raises(blocks.CatalogError, match=r":5: duplicate key kind"):
        blocks.parse_catalog_text("schema = 1\n\nid = x\nkind = fano_rank1\nkind = fano_rank1\n")
    # a one-record file rejects a repeated key also across its blank-line groups
    f = tmp_path / "x.cfg"
    f.write_text("schema = 1\nconfig = a\n\nblock_plus = Ex7.6\nconfig = b\n")
    with pytest.raises(blocks.CatalogError, match=r"x.cfg:4: duplicate key config"):
        blocks.read_fields(f)


def test_reader_records_and_values():
    text = "# comment\nschema = 1\n\nid = x\n  gram = [[2]]\nok = true\nname = P3 = Q\n\n\nid = y\n"
    records = blocks.parse_records(text, "t")
    assert records == [(2, {"schema": 1}), (4, {"id": "x", "gram": [[2]], "ok": True, "name": "P3 = Q"}),
                       (10, {"id": "y"})]
    with pytest.raises(blocks.CatalogError, match=r"t:1: expected 'key = value'"):
        blocks.parse_records("= 3\n", "t")
    with pytest.raises(blocks.CatalogError, match=r"t:2: bad literal"):
        blocks.parse_records("a = 1\nb = [1, 2\n", "t")


@pytest.mark.parametrize("value", [5, [], [[1, 2]], [[1], [2]], [[1, 2], [3, 1]], [[True]], [["2"]]])
def test_gram_check_rejects_non_gram(value):
    with pytest.raises(blocks.CatalogError, match="^here: gram must"):
        blocks.gram_lattice(value, "here")


def test_unknown_block_id_is_a_key_error():
    cat = blocks.rank1_catalog()
    with pytest.raises(blocks.UnknownBlockId) as info:
        cat["nope"]
    assert isinstance(info.value, KeyError)


def _both_routes(raw, monkeypatch):
    """_parse_value's result, or its CatalogError message, with and without
    the JSON path for integer literals."""
    results = []
    for pattern in (blocks._INT_LIST, re.compile("(?!)")):
        monkeypatch.setattr(blocks, "_INT_LIST", pattern)
        try:
            value = blocks._parse_value(raw)
            results.append((repr(value), value))
        except blocks.CatalogError as exc:
            # literal_eval's message names an AST node by its address
            results.append(("CatalogError", re.sub(r" at 0x[0-9a-f]+", "", str(exc))))
    return results


INT_LIST_TEXT = st.text(alphabet="0123456789-[], \t", max_size=40).map(lambda t: "[" + t)
INT_LISTS = st.recursive(st.integers(-10**30, 10**30), lambda sub: st.lists(sub, max_size=4), max_leaves=30)


def _render(value, seps):
    if isinstance(value, int):
        return str(value)
    sep = seps.draw(st.sampled_from([",", ", ", " ,\t", ",  "]))
    return "[" + sep.join(_render(v, seps) for v in value) + "]"


@settings(max_examples=400, deadline=None)
@given(INT_LIST_TEXT)
def test_parse_value_json_path_matches_literal_eval_on_any_text(raw):
    with pytest.MonkeyPatch.context() as mp:
        new, old = _both_routes(raw, mp)
    assert new == old


@settings(max_examples=200, deadline=None)
@given(st.lists(INT_LISTS, max_size=5), st.data())
def test_parse_value_json_path_matches_literal_eval_on_int_lists(value, data):
    raw = _render(value, data)
    with pytest.MonkeyPatch.context() as mp:
        new, old = _both_routes(raw, mp)
    assert new == old == (repr(value), value)


def _nested(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


BAD = "CatalogError"


@pytest.mark.parametrize("raw, expected", [
    ("[1,]", [1]),
    ("[- 1]", [-1]),
    ("[01]", BAD),
    ("[-0]", [0]),
    ("[1e3]", [1000.0]),
    ("[true]", BAD),
    ("[NaN]", BAD),
    ("[[1, 2], [3]]", [[1, 2], [3]]),
    # literal_eval's parser nests 200 deep at most; JSON accepts 201 and
    # raises RecursionError at 3000
    pytest.param("[" * 200 + "]" * 200, _nested(200), id="nested-200"),
    pytest.param("[" * 201 + "]" * 201, BAD, id="nested-201"),
    pytest.param("[" * 3000 + "]" * 3000, BAD, id="nested-3000"),
])
def test_parse_value_edge_cases(raw, expected, monkeypatch):
    new, old = _both_routes(raw, monkeypatch)
    assert new == old
    assert new[0] == BAD if expected == BAD else new == (repr(expected), expected)


def _bundled_and_config_texts():
    tables = resources.files("tcslat").joinpath("tables")
    for name in ("rank1.blocks", "rank2.blocks", "table2.blocks", "table6.polytopes"):
        yield name, tables.joinpath(name).read_text(encoding="utf-8")
    config_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    for path in sorted(glob.glob(os.path.join(config_dir, "*.cfg"))):
        yield os.path.basename(path), blocks.read_text(path)


@pytest.mark.parametrize("name, text", list(_bundled_and_config_texts()))
def test_parse_records_same_through_both_routes(name, text, monkeypatch):
    json_route = blocks.parse_records(text, name)
    monkeypatch.setattr(blocks, "_INT_LIST", re.compile("(?!)"))
    literal_route = blocks.parse_records(text, name)
    assert repr(json_route) == repr(literal_route)


def test_config_literals_are_not_compiled(monkeypatch):
    def refuse(raw):
        raise AssertionError(f"literal_eval on {raw[:20]!r}")

    monkeypatch.setattr(blocks.ast, "literal_eval", refuse)
    for name, text in _bundled_and_config_texts():
        if name.endswith(".cfg"):
            blocks.parse_records(text, name)
