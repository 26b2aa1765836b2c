"""Artifact file formats: manifest.json, matrix CSV, basis and word files.

Writers are deterministic (sorted JSON keys, LF newlines, no floats or
timestamps in anything persisted) and atomic (temp file then rename inside
the target directory), so regenerating with the same flags reproduces every
artifact byte for byte.

load_artifacts returns the Code that the manifest's q and r build, and
refuses any directory that does not describe exactly that code: the
manifest names its field by p and m, and its whole field section must
equal the canonical GF(p^m)'s spec_dict(); the basis file must list the
built code's basis, and the generator and parity-check files must be byte
for byte the built code's. So a loaded code is the built code: no stored
matrix is parsed.
"""

import json
import os
from pathlib import Path

from .construct import Code, Monomial
from .errors import FormatError
from .field import Field

FORMAT_VERSION = 1
ERASURE_MARK = "?"
POINT_ORDER = "row-coset-power"

MANIFEST_NAME = "manifest.json"
GENERATOR_NAME = "generator.csv"
PARITY_NAME = "parity.csv"
BASIS_NAME = "basis.txt"
#: the manifest's files section; loading refuses any other, so no manifest
#: can name a file outside its directory
FILES = {"generator": GENERATOR_NAME, "parity": PARITY_NAME, "basis": BASIS_NAME}


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def matrix_to_csv(rows: list[list[int]]) -> str:
    names = [str(x) for x in range(max(map(max, rows), default=0) + 1)]
    return "\n".join(",".join([names[x] for x in row]) for row in rows) + "\n"


def basis_to_text(basis: list[Monomial]) -> str:
    return "\n".join(f"{i} {j}" for i, j in basis) + "\n"


def parse_basis(text: str, path: str = "basis") -> list[Monomial]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}: line {ln} is not an 'i j' pair")
        try:
            out.append(Monomial(int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"{path}: line {ln} is not an 'i j' pair")
    return out


def word_to_text(symbols: list[int | None]) -> str:
    return ",".join(ERASURE_MARK if s is None else str(s) for s in symbols) + "\n"


def parse_word(text: str, q: int, path: str = "word") -> list[int | None]:
    """Codeword file: one line of comma-separated indices, '?' for erased."""
    body = text.strip()
    if not body:
        raise FormatError(f"{path}: empty")
    out: list[int | None] = []
    for tok in body.split(","):
        tok = tok.strip()
        if tok == ERASURE_MARK:
            out.append(None)
            continue
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(f"{path}: token {tok!r} is not an integer or '?'")
        if not 0 <= v < q:
            raise FormatError(f"{path}: symbol {v} outside [0, {q})")
        out.append(v)
    return out


def parse_message(text: str, q: int, k: int, path: str = "message") -> list[int]:
    symbols = parse_word(text, q, path)
    if any(s is None for s in symbols):
        raise FormatError(f"{path}: messages cannot contain '?'")
    if len(symbols) != k:
        raise FormatError(f"{path}: expected {k} symbols, found {len(symbols)}")
    return symbols  # type: ignore[return-value]


def manifest_dict(code: Code) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "field": code.field.spec_dict(),
        "code": {
            "r": code.r,
            "n": code.n,
            "k": code.k,
            "d_claimed": code.params.d_target,
            "optimal_regime": code.params.optimal_regime,
        },
        "ordering": {
            "primitive_element": code.domain.g,
            "point_order": POINT_ORDER,
        },
        "files": dict(FILES),
    }


def write_artifacts(code: Code, outdir: str | Path) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "manifest": outdir / MANIFEST_NAME,
        "generator": outdir / GENERATOR_NAME,
        "parity": outdir / PARITY_NAME,
        "basis": outdir / BASIS_NAME,
    }
    write_text_atomic(paths["manifest"], dumps_json(manifest_dict(code)))
    write_text_atomic(paths["generator"], matrix_to_csv(code.generator_matrix))
    write_text_atomic(paths["parity"], matrix_to_csv(code.parity_check_matrix))
    write_text_atomic(paths["basis"], basis_to_text(code.basis))
    return paths


def load_artifacts(dirpath: str | Path) -> Code:
    """The Code a gen directory describes, built from the manifest's q and r.

    The files section must name the fixed file names, the basis file must
    list that code's basis, and the generator and parity-check files must
    equal, byte for byte, what gen writes for it; any other directory is a
    FormatError.
    """
    dirpath = Path(dirpath)
    mpath = dirpath / MANIFEST_NAME
    text = mpath.read_text(encoding="utf-8")
    try:
        manifest = json.loads(text)
    except ValueError as e:  # also an integer past int's digit limit
        raise FormatError(f"{mpath}: invalid JSON ({e})") from None
    try:
        fsec = manifest["field"]
        csec = manifest["code"]
        osec = manifest["ordering"]
        p, m = int(fsec["p"]), int(fsec["m"])
        r = int(csec["r"])
        point_order = osec.get("point_order")
        primitive = osec.get("primitive_element")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
        raise FormatError(f"{mpath}: missing or malformed manifest fields") from None
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"{mpath}: unsupported format_version")
    if point_order != POINT_ORDER:
        raise FormatError(f"{mpath}: unknown point order {point_order!r}")
    try:
        field = Field(p, m)
    except ValueError as e:
        raise FormatError(f"{mpath}: bad field spec ({e})") from None
    if fsec != field.spec_dict():
        raise FormatError(f"{mpath}: field section is not the canonical {field!r}")
    if primitive != field.generator:
        raise FormatError(f"{mpath}: primitive element does not match the field")
    code = Code.build(field, r)
    params = code.params
    if params.n != csec.get("n") or params.k != csec.get("k"):
        raise FormatError(f"{mpath}: recorded n, k do not match q, r")
    if manifest.get("files") != FILES:
        raise FormatError(f"{mpath}: files must be {FILES}")
    of_code = f"of q = {field.q}, r = {r}"
    bname = BASIS_NAME
    if parse_basis((dirpath / bname).read_text(encoding="utf-8"), bname) != code.basis:
        raise FormatError(f"{bname}: not the monomial basis {of_code}")
    for name, what, rows in (
        (GENERATOR_NAME, "generator", code.generator_matrix),
        (PARITY_NAME, "parity-check", code.parity_check_matrix),
    ):
        if (dirpath / name).read_bytes() != matrix_to_csv(rows).encode():
            raise FormatError(f"{name}: not the {what} matrix {of_code}")
    return code
