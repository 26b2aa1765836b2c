"""Artifact file formats: the gen directory, matrix CSV and word files.

Writers are deterministic (sorted JSON keys, LF newlines, no floats or
timestamps in anything persisted) and atomic (temp file then rename inside
the target directory), so regenerating with the same flags reproduces every
artifact byte for byte.

ARTIFACTS defines a gen directory once: each file name with the text gen
writes for a code. write_artifacts writes that table. load_artifacts reads
only p, m and r from the manifest, builds the code they name, and refuses
the directory unless every file equals its table text byte for byte. So a
loaded code is the built code: no stored basis or matrix is parsed, and no
manifest field is checked on its own.

generator.csv is joined from the texts of the domain's x_blocks, each
converted once, so neither gen nor a load builds the rows of G: a row is
q-1 block texts, and at most (q-1)^3 symbols are converted to text instead
of the k*n of G. parity.csv is matrix_to_csv of H.
"""

import json
import os
from pathlib import Path

from .construct import Code, Monomial, build_within_budget
from .errors import FormatError
from .field import Field

FORMAT_VERSION = 1
ERASURE_MARK = "?"
POINT_ORDER = "row-coset-power"

MANIFEST_NAME = "manifest.json"
#: the manifest's files section: the other three files of a gen directory
FILES = {"generator": "generator.csv", "parity": "parity.csv", "basis": "basis.txt"}


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


def generator_to_csv(code: Code) -> str:
    """matrix_to_csv(code.generator_matrix), without building G: row (i, j)
    is the texts of x_blocks(i) at j*t mod q-1, t in [0, q-2], joined."""
    qm1, domain = code.field.q - 1, code.domain
    names = [str(x) for x in range(code.field.q)]
    texts: dict[int, list[str]] = {}
    lines = []
    for i, j in code.basis:
        if (blocks := texts.get(i)) is None:
            blocks = texts[i] = [",".join([names[x] for x in b]) for b in domain.x_blocks(i)]
        lines.append(",".join([blocks[j * t % qm1] for t in range(qm1)]))
    return "\n".join(lines) + "\n"


def basis_to_text(basis: list[Monomial]) -> str:
    return "\n".join(f"{i} {j}" for i, j in basis) + "\n"


def word_to_text(symbols: list[int | None]) -> str:
    return ",".join(ERASURE_MARK if s is None else str(s) for s in symbols) + "\n"


#: longest token an error message echoes in full
ECHO_MAX = 40


def _echo(text: str, show=repr) -> str:
    """show(text), with text cut to ECHO_MAX characters so one ERR line
    stays short."""
    if len(text) <= ECHO_MAX:
        return show(text)
    return f"{show(text[:ECHO_MAX])}... ({len(text)} characters)"


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
            # int() alone also reads signs, underscores and other scripts' digits
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError
            v = int(tok)
        except ValueError:  # also past int's digit limit
            raise FormatError(f"{path}: token {_echo(tok)} is not an integer or '?'")
        if not 0 <= v < q:
            raise FormatError(f"{path}: symbol {_echo(str(v), str)} outside [0, {q})")
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


#: manifest text by (p, m, r), which alone decide it. An indented JSON dump
#: leaves reference cycles behind, and dumping on every load made repeated
#: in-process loads run 50% more garbage collections.
_MANIFEST_TEXTS: dict[tuple[int, int, int], str] = {}


def _manifest_text(code: Code) -> str:
    key = code.field.p, code.field.m, code.r
    if key not in _MANIFEST_TEXTS:
        _MANIFEST_TEXTS[key] = dumps_json(manifest_dict(code))
    return _MANIFEST_TEXTS[key]


#: a gen directory: each file name with the text gen writes for a code, in
#: the order gen writes and prints them
ARTIFACTS = {
    MANIFEST_NAME: _manifest_text,
    FILES["generator"]: generator_to_csv,
    FILES["parity"]: lambda code: matrix_to_csv(code.parity_check_matrix),
    FILES["basis"]: lambda code: basis_to_text(code.basis),
}


def write_artifacts(code: Code, outdir: str | Path) -> dict[str, Path]:
    """Write the ARTIFACTS texts of code into outdir; returns the path of
    each file name, in table order."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {name: outdir / name for name in ARTIFACTS}
    for name, text in ARTIFACTS.items():
        write_text_atomic(paths[name], text(code))
    return paths


def load_artifacts(dirpath: str | Path) -> Code:
    """The Code a gen directory describes, built from the manifest's p, m and r.

    Building keeps the errors of Field and build_within_budget (TooLarge,
    NotPrime, DivisibilityViolation, ...). Every file must then equal, byte
    for byte, its ARTIFACTS text for that code; any other directory is a
    FormatError naming the file.
    """
    dirpath = Path(dirpath)
    mpath = dirpath / MANIFEST_NAME
    manifest_bytes = mpath.read_bytes()
    try:
        manifest = json.loads(manifest_bytes)
    except ValueError as e:  # also an integer past int's digit limit
        raise FormatError(f"{mpath}: invalid JSON ({e})") from None
    try:
        p, m = int(manifest["field"]["p"]), int(manifest["field"]["m"])
        r = int(manifest["code"]["r"])
    except (KeyError, OverflowError, TypeError, ValueError):
        raise FormatError(f"{mpath}: missing or malformed manifest fields") from None
    try:
        field = Field(p, m)
    except ValueError as e:
        raise FormatError(f"{mpath}: bad field spec ({e})") from None
    code = build_within_budget(field, r)
    # the matrices last, so a foreign manifest or basis is refused before
    # their texts are rendered and H is built
    for name in sorted(ARTIFACTS, key=lambda name: name.endswith(".csv")):
        # rendered before the file is read, so the text is freed by then
        expected = ARTIFACTS[name](code).encode()
        data = manifest_bytes if name == MANIFEST_NAME else (dirpath / name).read_bytes()
        if data != expected:
            raise FormatError(f"{name}: not what gen writes for q = {field.q}, r = {r}")
    return code
