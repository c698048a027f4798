"""Building-block catalog: record model, bundled tables, parser and validators.

Catalog, gluing-config and W files are UTF-8, line-oriented `key = value`
records separated by blank lines, all read by `parse_records`; Gram matrices
are bracketed integer lists, all checked by `gram_lattice`.  See
docs/catalog-format.md.  The env var TCS_TABLES_DIR overrides the bundled tables.
"""

import ast
import functools
import json
import os
import re
from importlib import resources
from types import MappingProxyType

from . import exactalg as xa
from . import lattice as lat

KINDS = {
    "fano_rank1",
    "fano_rank2",
    "semifano_small_res",
    "semifano_crepant",
    "nongeneric_pencil",
    "nonsymplectic",
}


class CatalogError(ValueError):
    pass


class UnknownBlockId(KeyError):
    pass


class BlockRecord:
    """One building block, immutable so that one record serves every catalog of a process: Gram and A
    are checked rows (`exactalg.frozen`), `meta` is read-only, and setting a field raises AttributeError."""

    def __init__(self, id, kind, n_gram=None, anticanonical_class=None, b3_Z=None,
                 rk_K=0, div_c2=frozenset(), div_c2_mod_Aperp=None, e_rigid=0,
                 ell_N=None, gramless=False, meta=None, notes=""):
        N = None if n_gram is None else lat.Lattice(n_gram)  # built once, with the record
        A = None if anticanonical_class is None else xa.frozen([anticanonical_class])[0]
        vars(self).update(id=id, kind=kind, n_gram=None if N is None else N.gram, _lattice=N, b3_Z=b3_Z,
                          anticanonical_class=A, rk_K=rk_K, div_c2=frozenset(int(x) for x in div_c2),
                          div_c2_mod_Aperp=div_c2_mod_Aperp, e_rigid=e_rigid, ell_N=ell_N, gramless=gramless,
                          meta=MappingProxyType(dict(meta or {})), notes=notes)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable: cannot set {name}")

    @property
    def rank(self):
        return self.meta["rank"] if self.gramless else len(self.n_gram)

    def lattice(self):
        if self.gramless:
            raise CatalogError(f"{self.id}: gramless record has no lattice")
        return self._lattice

    def ell(self):
        return self.ell_N if self.gramless else lat.ell(self.lattice())

    def __repr__(self):
        return f"BlockRecord({self.id!r})"


class Catalog:
    """Records by id, read-only: a merge makes a new catalog, so a shared one never changes."""

    def __init__(self, records, provenance=""):
        by_id = {}
        for rec in records:
            if rec.id in by_id:
                raise CatalogError(f"duplicate id {rec.id}")
            by_id[rec.id] = rec
        self.records = MappingProxyType(by_id)
        self.provenance = provenance

    def __getitem__(self, id):
        try:
            return self.records[id]
        except KeyError:
            raise UnknownBlockId(id) from None

    def __iter__(self):
        return iter(self.records.values())

    def __len__(self):
        return len(self.records)

    def ids(self):
        return list(self.records)

    def merged_with(self, other):
        return Catalog(list(self) + list(other), provenance=f"{self.provenance}+{other.provenance}")


# JSON reads text made of these characters as the nested int lists literal_eval
# gives, without compiling it; up to 200 brackets stays within the nesting that
# literal_eval's parser accepts (JSON goes on to about 1000)
_INT_LIST = re.compile(r"\[[-0-9\[\], \t]*")


def _parse_value(raw):
    raw = raw.strip()
    if _INT_LIST.fullmatch(raw) and raw.count("[") <= 200:
        try:
            return json.loads(raw)
        except ValueError:
            pass  # such as [1,] or [- 1]: literal_eval decides
    if raw.startswith("[") or raw.startswith("{") or raw.startswith("("):
        try:
            return ast.literal_eval(raw)
        except (ValueError, TypeError, SyntaxError, RecursionError) as exc:
            # literal_eval names a rejected node by its memory address, which differs between runs
            detail = re.sub(r" at 0x[0-9a-fA-F]+", "", str(exc))
            raise CatalogError(f"bad literal {raw!r}: {detail}") from None
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        return raw


def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise CatalogError(f"{path}: cannot read: {exc}") from None


def parse_records(text, path):
    """The `key = value` records of a catalog, config or W file, as
    (first line number, fields) pairs; records are separated by blank lines,
    `#` starts a comment line, and a key may appear once per record."""
    records = []
    fields = {}
    # the empty line appended closes the last record
    for lineno, line in enumerate(text.splitlines() + [""], start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if fields:
                records.append((start, fields))
                fields = {}
            continue
        key, eq, raw = stripped.partition("=")
        key = key.strip()
        if not eq or not key:
            raise CatalogError(f"{path}:{lineno}: expected 'key = value'")
        if key in fields:
            raise CatalogError(f"{path}:{lineno}: duplicate key {key}")
        if not fields:
            start = lineno
        try:
            fields[key] = _parse_value(raw)
        except CatalogError as exc:
            raise CatalogError(f"{path}:{lineno}: {exc}") from None
    return records


def read_fields(path):
    """All pairs of a one-record file (a gluing config or a W file) as one
    dict; blank lines only group its lines, and a key may appear once."""
    fields = {}
    for start, record in parse_records(read_text(path), path):
        if duplicates := fields.keys() & record.keys():
            raise CatalogError(f"{path}:{start}: duplicate key {min(duplicates)}")
        fields.update(record)
    return fields


def is_int_matrix(value, rows, cols):
    """True iff `value` is a list of `rows` lists, or a tuple of `rows` Rows, of `cols` ints each."""
    if type(value) is tuple:
        return len(value) == rows and all(type(row) is xa.Row and len(row) == cols for row in value)
    return isinstance(value, list) and len(value) == rows and all(
        isinstance(row, list) and len(row) == cols and all(type(x) is int for x in row)
        for row in value)


def gram_lattice(value, where):
    """The Lattice of a nonempty square symmetric integer matrix given as
    nested lists; anything else is a CatalogError naming `where`."""
    n = len(value) if isinstance(value, list) else 0
    if not n or not is_int_matrix(value, n, n):
        raise CatalogError(f"{where}: gram must be a square integer matrix, got {value!r}")
    if any(value[i][j] != value[j][i] for i in range(n) for j in range(i)):
        raise CatalogError(f"{where}: gram must be symmetric, got {value!r}")
    return lat.Lattice(value)


def parse_gram(text, where):
    """A Gram matrix written as one literal, such as `--r "[[-4]]"`."""
    try:
        value = _parse_value(text)
    except CatalogError as exc:
        raise CatalogError(f"{where}: {exc}") from None
    return gram_lattice(value, where)


_INT = (lambda v: type(v) is int, "an integer")
_NONNEGATIVE = (lambda v: type(v) is int and v >= 0, "a nonnegative integer")
_BOOL = (lambda v: type(v) is bool, "true or false")

# Each format's field types, read by `check_fields`: key -> (test, what the value must be).  Unlisted
# keys (`name`, `notes`, `resolutions`, `genus`, `config`, the matrices) are not type-checked there.
RECORD_FIELDS = {
    "id": (lambda v: type(v) is str and v != "", "a non-empty string"),
    "kind": (lambda v: type(v) is str and v in KINDS, "one of " + ", ".join(sorted(KINDS))),
    "gramless": _BOOL,
    # `{}` is how the format writes the empty set
    "div_c2": (lambda v: (isinstance(v, (set, list, tuple)) or v == {}) and all(type(x) is int for x in v),
               "a set of integers"),
    "disc": (lambda v: type(v) is list and all(type(x) is int for x in v), "a list of integers"),
    **dict.fromkeys(("b3_Z", "div_c2_mod_Aperp"), _INT),
    **dict.fromkeys(("rk_K", "e", "rank", "ell", "b3_Y"), _NONNEGATIVE),
    **dict.fromkeys(("r", "d"), (lambda v: type(v) is int and v > 0, "a positive integer")),
}
CONFIG_FIELDS = {
    "schema": (lambda v: type(v) is int and v == 1, "1"),
    **dict.fromkeys(("block_plus", "block_minus"), (lambda v: type(v) is str, "a block id")),
    **dict.fromkeys(("resolution_plus", "resolution_minus"), _INT),
    "ample_cone_asserted": _BOOL,
    "div_c2_mod_image": (lambda v: is_int_matrix([v], 1, 2), "a pair of integers"),
}


def check_fields(fields, table, required, where, error=CatalogError):
    """Raise `error` at the first missing `required` key, then at the first value failing its test."""
    for key in required:
        if key not in fields:
            raise error(f"{where}: missing {key}")
    for key, value in fields.items():
        if key in table and not table[key][0](value):
            raise error(f"{where}: {key} must be {table[key][1]}, got {value!r}")


def load_gram(path):
    """The lattice W of a W file (`embed --w`): one required `gram` key."""
    fields = read_fields(path)
    check_fields(fields, {}, ("gram",), path)
    W = gram_lattice(fields["gram"], path)
    if not W.is_nondegenerate():
        raise CatalogError(f"{path}: gram is degenerate")
    return W


def _validate_record(fields, path, lineno):
    gramless = fields.get("gramless", False)
    needs = ("rank", "ell") if gramless is True else ("gram", "A", "b3_Z")
    check_fields(fields, RECORD_FIELDS, ("id", "kind") + needs, f"{path}:{lineno}")
    rid, kind, div_c2 = fields["id"], fields["kind"], fields.get("div_c2", set())
    div_mod = fields.get("div_c2_mod_Aperp")
    meta_keys = ("r", "d", "b3_Y", "name", "rank", "resolutions", "genus", "disc")
    meta = {k: fields[k] for k in meta_keys if k in fields}
    gram = A = None  # a gramless record keeps neither
    if not gramless:
        where = f"{path}:{lineno}: {rid}"
        L = gram_lattice(fields["gram"], where)
        if not L.is_even():
            raise CatalogError(f"{where}: violates evenness (K3 Picard sublattice)")
        try:
            sig = lat.signature(L)
        except lat.DegenerateLattice:
            sig = "degenerate"
        if sig != (1, L.rank - 1):
            raise CatalogError(f"{where}: violates signature (1, rank-1), got {sig}")
        gram, A = L.gram, fields["A"]
        if not is_int_matrix([A], 1, L.rank):
            raise CatalogError(f"{where}: A must be an integer vector of length {L.rank}")
        AA = L.norm(A)
        if AA <= 0:
            raise CatalogError(f"{where}: violates A.A > 0")
        if fields.get("minus_k3", AA) != AA:
            raise CatalogError(f"{where}: violates A.A = -K^3")
        if fields["b3_Z"] % 2 != 0:
            raise CatalogError(f"{where}: violates b3_Z even")
        if any(v % 2 != 0 for v in div_c2):
            raise CatalogError(f"{where}: violates div_c2 even")
        if kind in ("fano_rank1", "fano_rank2") and fields.get("e", 0) != 0:
            raise CatalogError(f"{where}: Fano blocks have no K-trivial curves (e = 0)")
    return BlockRecord(id=rid, kind=kind, n_gram=gram, anticanonical_class=A, b3_Z=fields.get("b3_Z"),
                       rk_K=fields.get("rk_K", 0), div_c2=div_c2, div_c2_mod_Aperp=div_mod,
                       e_rigid=fields.get("e", 0), ell_N=fields.get("ell"), gramless=gramless, meta=meta,
                       notes=fields.get("notes", ""))


def parse_catalog_text(text, path="<string>"):
    records = parse_records(text, path)
    header = records[0][1] if records else {}
    if next(iter(header), None) != "schema" or not CONFIG_FIELDS["schema"][0](header.pop("schema")):
        raise CatalogError(f"{path}: the first pair must be 'schema = 1'")
    table = header.pop("table", "")
    return Catalog([_validate_record(fields, path, start) for start, fields in records if fields],
                   provenance=table or path)


def load_catalog(path):
    return parse_catalog_text(read_text(path), path=str(path))


@functools.cache
def _bundled(*names):
    """The bundled tables merged in order, built once per process from each table's one parse."""
    if len(names) > 1:
        return functools.reduce(Catalog.merged_with, map(_bundled, names))
    text = resources.files("tcslat").joinpath("tables").joinpath(names[0]).read_text(encoding="utf-8")
    return parse_catalog_text(text, path=f"tables/{names[0]}")


def load_bundled(*names):
    """The bundled tables merged in order, parsed once per process and shared (records are immutable);
    with TCS_TABLES_DIR set, the files of those names there instead, read and parsed on every call."""
    override = os.environ.get("TCS_TABLES_DIR")
    if not override:
        return _bundled(*names)
    paths = [os.path.join(override, name) for name in names]
    return functools.reduce(Catalog.merged_with, (parse_catalog_text(read_text(p), path=p) for p in paths))


def rank1_catalog():
    return load_bundled("rank1.blocks")


def table2_catalog():
    return load_bundled("table2.blocks")


def rank2_catalog():
    return load_bundled("rank2.blocks")


def table6_catalog():
    return load_bundled("table6.polytopes")


def full_catalog():
    """The gram-carrying tables (rank-1, the worked examples, rank-2 Fanos)."""
    return load_bundled("rank1.blocks", "table2.blocks", "rank2.blocks")


def all_catalogs():
    """Everything bundled, including the gramless polytope records."""
    return load_bundled("rank1.blocks", "table2.blocks", "rank2.blocks", "table6.polytopes")


def validate_rank1(rec):
    """N = <rd>, A = r * generator so A.A = r^3 d, b3_Z = b3_Y + 2g with
    2g - 2 = r^3 d.  Returns (ok, reason)."""
    if rec.kind != "fano_rank1":
        return False, "not a rank-1 Fano record"
    r = rec.meta.get("r")
    d = rec.meta.get("d")
    b3_Y = rec.meta.get("b3_Y")
    if r is None or d is None or b3_Y is None:
        return False, "missing r / d / b3_Y metadata"
    if rec.n_gram != ((r * d,),):
        return False, f"polarising lattice is not <{r * d}>"
    if rec.anticanonical_class != (r,):
        return False, "A is not r times the generator"
    deg = r**3 * d
    if deg % 2 != 0:
        return False, "r^3 d must be even"
    g = (deg + 2) // 2
    if rec.b3_Z != b3_Y + 2 * g:
        return False, f"b3_Z = {rec.b3_Z} != b3_Y + 2g = {b3_Y + 2 * g}"
    return True, ""
