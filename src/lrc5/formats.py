"""Artifact file formats: the gen directory, matrix CSV and word files,
and what every written JSON document and output directory share.

Writers are deterministic (sorted JSON keys, LF newlines, no floats or
timestamps in anything persisted) and atomic (temp file then rename inside
the target directory), so regenerating with the same flags reproduces every
artifact byte for byte. document_head is the head of every JSON document
(gen's manifest, verify's report, simulate's result), and write_texts the
one writer of an output directory.

ARTIFACTS defines a gen directory once: each file name with the text gen
writes for a code. write_artifacts writes that table. load_artifacts reads
only p, m and r from the manifest, builds the code they name, and refuses
the directory unless every file equals its table text byte for byte. So a
loaded code is the built code: no stored basis or matrix is parsed, and no
manifest field is checked on its own.

Neither gen nor a load builds G or H, and both take the texts line by
line, so either holds about one row of text at a time. generator.csv joins
block texts, each converted once: a row is q-1 of them, so at most (q-1)^3
symbols are converted instead of the k*n of G. parity.csv is H's pivot rows
and, for every other row, the local parity's text amid runs of zeros.
"""

import io
import json
import os
from collections.abc import Iterable, Iterator
from operator import itemgetter
from pathlib import Path

from .construct import Code, Monomial, build_within_budget, parity_check_pivot_rows
from .errors import FormatError
from .field import Field

FORMAT_VERSION = 1
ERASURE_MARK = "?"
#: string.whitespace: the only spaces a word may hold around a symbol
ASCII_SPACE = " \t\n\r\x0b\x0c"
POINT_ORDER = "row-coset-power"

MANIFEST_NAME = "manifest.json"
#: the manifest's files section: the other three files of a gen directory
FILES = {"generator": "generator.csv", "parity": "parity.csv", "basis": "basis.txt"}


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or each of its pieces in turn, to a temp file beside
    path, then rename it to path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    os.replace(tmp, path)


def matrix_to_csv(rows: list[list[int]]) -> str:
    names = [str(x) for x in range(max(map(max, rows), default=0) + 1)]
    return "\n".join(",".join([names[x] for x in row]) for row in rows) + "\n"


def generator_lines(code: Code) -> Iterator[str]:
    """The lines of matrix_to_csv(code.generator_matrix), each with its LF,
    without building G: row (i, j) joins, for t in [0, q-2], the text of
    block j*t mod q-1 of exponent i, whose entry u is g^e * x_u^i =
    exp[e + i * log x_u]. Each block text is converted once."""
    qm1, logs = code.field.q - 1, code.domain.x_logs
    exp_names = [str(x) for x in code.field.exp]
    texts: dict[int, list[str]] = {}
    rows: dict[int, itemgetter] = {}
    for i, j in code.basis:
        if (blocks := texts.get(i)) is None:
            block = itemgetter(*[i * lx % qm1 for lx in logs])
            blocks = texts[i] = [",".join(block(exp_names[e:e + qm1])) for e in range(qm1)]
        if (row := rows.get(j)) is None:
            row = rows[j] = itemgetter(*[j * t % qm1 for t in range(qm1)])
        yield ",".join(row(blocks)) + "\n"


def parity_lines(code: Code) -> Iterator[str]:
    """The lines of matrix_to_csv(code.parity_check_matrix), each with its
    LF, without building H: the text of construct.parity_check_pivot_rows,
    and every other row the run of the local parity's text at its cell
    start, zeros elsewhere."""
    n, size = code.n, code.domain.cell_size
    pivot_rows = parity_check_pivot_rows(code.domain)
    local = ",".join(map(str, code.domain.local_parity))
    for piv in sorted(pivot_rows.keys() | range(0, n, size)):
        if (row := pivot_rows.get(piv)) is not None:
            yield ",".join(map(str, row)) + "\n"
        else:
            yield "0," * piv + local + ",0" * (n - piv - size) + "\n"


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
    body = text.strip(ASCII_SPACE)
    if not body:
        raise FormatError(f"{path}: empty")
    out: list[int | None] = []
    for tok in body.split(","):
        tok = tok.strip(ASCII_SPACE)
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


def document_head(code: Code, **code_fields) -> dict:
    """The head of every JSON document written: format version, field and
    code, with code_fields added to the code's r, n and k."""
    return {
        "format_version": FORMAT_VERSION,
        "field": code.field.spec_dict(),
        "code": {"r": code.r, "n": code.n, "k": code.k, **code_fields},
    }


def manifest_dict(code: Code) -> dict:
    params = code.params
    return document_head(code, d_claimed=params.d_target, optimal_regime=params.optimal_regime) | {
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


#: a gen directory: each file name with the text gen writes for a code, as
#: pieces to join, in the order gen writes and prints them
ARTIFACTS = {
    MANIFEST_NAME: lambda code: [_manifest_text(code)],
    FILES["generator"]: generator_lines,
    FILES["parity"]: parity_lines,
    FILES["basis"]: lambda code: [basis_to_text(code.basis)],
}


def write_texts(outdir: str | Path, texts: Iterable[tuple[str, Iterable[str]]]) -> dict[str, Path]:
    """Make outdir and write each (file name, text or its pieces) into it
    atomically, one file at a time; returns the path of each file name, in
    order."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in texts:
        paths[name] = outdir / name
        write_text_atomic(paths[name], text)
    return paths


def write_artifacts(code: Code, outdir: str | Path) -> dict[str, Path]:
    """Write the ARTIFACTS texts of code into outdir, piece by piece;
    returns the path of each file name, in table order."""
    return write_texts(outdir, ((name, pieces(code)) for name, pieces in ARTIFACTS.items()))


def _holds_exactly(fh, pieces) -> bool:
    """Whether the binary file fh holds the UTF-8 of the pieces joined and
    nothing more, reading one piece's length at a time."""
    for piece in pieces:
        data = piece.encode()
        if fh.read(len(data)) != data:
            return False
    return not fh.read(1)


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
    # their texts are rendered
    for name in sorted(ARTIFACTS, key=lambda name: name.endswith(".csv")):
        is_manifest = name == MANIFEST_NAME
        with io.BytesIO(manifest_bytes) if is_manifest else (dirpath / name).open("rb") as fh:
            if not _holds_exactly(fh, ARTIFACTS[name](code)):
                raise FormatError(f"{name}: not what gen writes for q = {field.q}, r = {r}")
    return code
