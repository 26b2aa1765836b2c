import json
import os
import string

import pytest

from lrc5 import Code, Field
from lrc5.construct import parity_check_pivot_rows
from lrc5.errors import FormatError
from lrc5.formats import (
    FORMAT_VERSION,
    POINT_ORDER,
    dumps_json,
    generator_lines,
    load_artifacts,
    manifest_dict,
    matrix_to_csv,
    parity_lines,
    parse_message,
    parse_word,
    word_to_text,
    write_artifacts,
    write_text_atomic,
)

from .oracles import prime_power
from .test_construct import ADMISSIBLE_UP_TO_32


def test_dumps_json_is_sorted_and_newline_terminated():
    text = dumps_json({"b": 1, "a": [2, None]})
    assert text == '{\n  "a": [\n    2,\n    null\n  ],\n  "b": 1\n}\n'
    assert text.index('"a"') < text.index('"b"')


def test_write_text_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(target, "alpha\n")
    write_text_atomic(target, "beta\n")
    assert target.read_text() == "beta\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_matrix_csv_roundtrip():
    rows = [[0, 1, 6], [3, 4, 5]]
    text = matrix_to_csv(rows)
    assert text == "0,1,6\n3,4,5\n"
    assert [[int(x) for x in line.split(",")] for line in text.splitlines()] == rows
    assert matrix_to_csv([[2, 0], [0, 12]]) == "2,0\n0,12\n"


def test_word_roundtrip_and_erasures():
    symbols = [3, None, 0, 6]
    text = word_to_text(symbols)
    assert text == "3,?,0,6\n"
    assert parse_word(text, 7) == symbols


def test_word_rejects_bad_tokens():
    with pytest.raises(FormatError):
        parse_word("1,2,9", 7)
    with pytest.raises(FormatError):
        parse_word("1,zz,3", 7)
    with pytest.raises(FormatError):
        parse_word("", 7)


@pytest.mark.parametrize("token", ["1_2", "+3", "-0", "\u0661\u0662", "\uff13", "0x1", " 1 2 "])
def test_word_refuses_tokens_that_are_not_ascii_decimal(token):
    """int() would read these as 12, 3, 0, 12, 3 and, for the last two,
    fail; only ASCII digits spell a symbol."""
    with pytest.raises(FormatError, match=r"^word: token .* is not an integer or '\?'$"):
        parse_word(f"1,{token},2", 13)


@pytest.mark.parametrize("text", ["\u00a07,3", "7,3\u3000", "7,\x1c3", "7\x85,3", "7,\u20283"])
def test_word_strips_only_ascii_whitespace(text):
    """str.strip() would also strip these (a no-break space, an
    ideographic space, a file separator, a next-line mark and a line
    separator); a symbol and the spaces around it are ASCII."""
    with pytest.raises(FormatError, match=r"^word: token .* is not an integer or '\?'$"):
        parse_word(text, 13)


def test_word_strips_every_ascii_whitespace():
    assert parse_word(f"{string.whitespace}7,{string.whitespace}3{string.whitespace}", 13) == [7, 3]


def test_word_keeps_surrounding_whitespace_and_leading_zeros():
    assert parse_word(" 007 ,\t?, 0012\n", 13) == [7, None, 12]
    assert parse_message("00,01", 13, 2) == [0, 1]


def test_format_errors_echo_at_most_a_fixed_length_of_a_token():
    with pytest.raises(FormatError, match=r"^word: token 'zz' is not an integer or '\?'$"):
        parse_word("1,zz,3", 7)
    with pytest.raises(FormatError, match=r"^word: symbol 9 outside \[0, 7\)$"):
        parse_word("1,9", 7)
    # a space-separated message is one token of every symbol
    token, symbol = " ".join(["63"] * 3_399), "9" * 4_000
    for text, echo in ((token, f"token {token[:40]!r}"), (symbol, f"symbol {symbol[:40]}")):
        with pytest.raises(FormatError) as err:
            parse_word(text, 64)
        assert f"{echo}... ({len(text)} characters)" in str(err.value)
        assert len(str(err.value)) < 120


def test_message_must_be_complete_and_sized():
    assert parse_message("1,2,3", 7, 3) == [1, 2, 3]
    with pytest.raises(FormatError):
        parse_message("1,?,3", 7, 3)
    with pytest.raises(FormatError):
        parse_message("1,2", 7, 3)


def test_manifest_contents(code75):
    doc = manifest_dict(code75)
    assert doc["format_version"] == FORMAT_VERSION == 1
    assert doc["field"] == {"p": 7, "m": 1, "modulus": [0, 1], "q": 7}
    assert doc["code"] == {
        "r": 5,
        "n": 36,
        "k": 27,
        "d_claimed": 5,
        "optimal_regime": True,
    }
    assert doc["ordering"]["point_order"] == POINT_ORDER == "row-coset-power"
    assert doc["ordering"]["primitive_element"] == 3


def test_artifact_roundtrip(tmp_path, code75):
    paths = write_artifacts(code75, tmp_path)
    assert sorted(p.name for p in paths.values()) == [
        "basis.txt",
        "generator.csv",
        "manifest.json",
        "parity.csv",
    ]
    loaded = load_artifacts(tmp_path)
    assert loaded.generator_matrix == code75.generator_matrix
    assert loaded.parity_check_matrix == code75.parity_check_matrix
    assert loaded.n == 36 and loaded.k == 27


def test_generator_text_is_matrix_csv_of_g_at_every_small_instance():
    """The block-joined text equals matrix_to_csv of the built G at all 44
    admissible (q, r) with q <= 32, without building G itself."""
    assert len(ADMISSIBLE_UP_TO_32) == 44
    for q, r in ADMISSIBLE_UP_TO_32:
        code = Code.build(Field(*prime_power(q)), r)
        text = "".join(generator_lines(code))
        assert "generator_matrix" not in vars(code)
        assert text == matrix_to_csv(code.generator_matrix), (q, r)


def test_parity_text_is_matrix_csv_of_h_at_every_small_instance():
    """The text rendered from the pivot rows and local-row runs equals
    matrix_to_csv of the built H at all 44 admissible (q, r) with q <= 32,
    without building H itself."""
    assert len(ADMISSIBLE_UP_TO_32) == 44
    for q, r in ADMISSIBLE_UP_TO_32:
        code = Code.build(Field(*prime_power(q)), r)
        text = "".join(parity_lines(code))
        assert "parity_check_matrix" not in vars(code)
        assert text == matrix_to_csv(code.parity_check_matrix), (q, r)


def test_load_leaves_the_generator_matrix_unbuilt(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    loaded = load_artifacts(tmp_path)
    assert "generator_matrix" not in vars(loaded)
    assert loaded.generator_matrix == code75.generator_matrix


def test_load_builds_neither_h_nor_the_local_dual_rows(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    loaded = load_artifacts(tmp_path)
    assert "parity_check_matrix" not in vars(loaded)
    assert "dual_rows" not in vars(loaded.domain)
    assert loaded.parity_check_matrix == code75.parity_check_matrix


def test_load_reads_the_manifest_once(tmp_path, code75, monkeypatch):
    """Each file of the directory is opened once, the manifest included."""
    write_artifacts(code75, tmp_path)
    opens = []
    path_open = type(tmp_path).open

    def counted(path, *args, **kwargs):
        opens.append(path.name)
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(type(tmp_path), "open", counted)
    load_artifacts(tmp_path)
    assert sorted(opens) == ["basis.txt", "generator.csv", "manifest.json", "parity.csv"]


def test_artifacts_are_byte_deterministic(tmp_path, code75):
    a, b = tmp_path / "a", tmp_path / "b"
    write_artifacts(code75, a)
    write_artifacts(code75, b)
    for name in ("manifest.json", "generator.csv", "parity.csv", "basis.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_load_rejects_corrupt_manifest(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    mpath = tmp_path / "manifest.json"
    mpath.write_text("{ not json")
    with pytest.raises(FormatError):
        load_artifacts(tmp_path)


def test_load_rejects_wrong_format_version(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    mpath = tmp_path / "manifest.json"
    doc = json.loads(mpath.read_text())
    doc["format_version"] = 99
    mpath.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_artifacts(tmp_path)


def test_load_rejects_inconsistent_dimensions(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    mpath = tmp_path / "manifest.json"
    doc = json.loads(mpath.read_text())
    doc["code"]["k"] = 26
    mpath.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_artifacts(tmp_path)


def test_load_keeps_tampered_matrices_as_stored(tmp_path, code75):
    """A tampered matrix file is refused, naming the file: a loaded code is
    always the built one."""
    write_artifacts(code75, tmp_path)
    gpath = tmp_path / "generator.csv"
    text = gpath.read_text()
    gpath.write_text(str((int(text[0]) + 1) % 7) + text[1:])
    with pytest.raises(FormatError, match="generator.csv"):
        load_artifacts(tmp_path)


def _parity_line_index(code, pivot_row: bool) -> int:
    """Index in parity.csv of the first row that is (or is not) one of
    parity_check_pivot_rows: a dense row or a cleared local row."""
    special = parity_check_pivot_rows(code.domain)
    pivots = sorted(special.keys() | range(0, code.n, code.r + 1))
    return next(i for i, piv in enumerate(pivots) if (piv in special) == pivot_row)


@pytest.mark.parametrize("pivot_row", [False, True], ids=["plain-run-row", "pivot-row"])
def test_load_refuses_one_changed_byte_in_parity_csv(tmp_path, code75, pivot_row):
    write_artifacts(code75, tmp_path)
    hpath = tmp_path / "parity.csv"
    lines = hpath.read_text().splitlines(keepends=True)
    at = _parity_line_index(code75, pivot_row)
    line = lines[at]
    lines[at] = str((int(line[0]) + 1) % 7) + line[1:]
    hpath.write_text("".join(lines))
    with pytest.raises(FormatError, match="parity.csv"):
        load_artifacts(tmp_path)


def test_load_refuses_an_extra_trailing_line_in_parity_csv(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    hpath = tmp_path / "parity.csv"
    text = hpath.read_text()
    hpath.write_text(text + text.splitlines(keepends=True)[-1])
    with pytest.raises(FormatError, match="parity.csv"):
        load_artifacts(tmp_path)


def test_load_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_artifacts(tmp_path / "absent")
