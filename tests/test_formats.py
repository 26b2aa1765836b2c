import json
import os

import pytest

from lrc5 import Code, Field
from lrc5.errors import FormatError
from lrc5.formats import (
    FORMAT_VERSION,
    POINT_ORDER,
    dumps_json,
    generator_to_csv,
    load_artifacts,
    manifest_dict,
    matrix_to_csv,
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
        text = generator_to_csv(code)
        assert "generator_matrix" not in vars(code)
        assert text == matrix_to_csv(code.generator_matrix), (q, r)


def test_load_leaves_the_generator_matrix_unbuilt(tmp_path, code75):
    write_artifacts(code75, tmp_path)
    loaded = load_artifacts(tmp_path)
    assert "generator_matrix" not in vars(loaded)
    assert loaded.generator_matrix == code75.generator_matrix


def test_load_reads_the_manifest_once(tmp_path, code75, monkeypatch):
    write_artifacts(code75, tmp_path)
    reads = []
    read_bytes = type(tmp_path).read_bytes

    def counted(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(type(tmp_path), "read_bytes", counted)
    load_artifacts(tmp_path)
    assert sorted(reads) == ["basis.txt", "generator.csv", "manifest.json", "parity.csv"]


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


def test_load_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_artifacts(tmp_path / "absent")
