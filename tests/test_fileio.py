import errno
import os
import stat

import pytest

from fbarcirc.fileio import atomic_open, atomic_write_text


class TestAtomicOpen:
    def test_writes_then_renames(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(path) as fh:
            fh.write(b"one\n")
            fh.write(b"two\n")
            assert not path.exists()  # nothing at the target until a clean exit
        assert path.read_bytes() == b"one\ntwo\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_mid_stream_keeps_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")

        def chunks():
            yield b"new first block\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            with atomic_open(path) as fh:
                for chunk in chunks():
                    fh.write(chunk)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no .tmp_* left

    @pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
    def test_mode_of_a_plain_open(self, tmp_path, umask, mask):
        # a temp file from tempfile.mkstemp would be 0600 whatever the umask
        umask(mask)
        atomic_write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x\n")
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("atomic.txt", "plain.txt")]
        assert modes == [0o666 & ~mask] * 2

    def test_text_is_utf8(self, tmp_path):
        path = tmp_path / "t.txt"
        atomic_write_text(path, "Ω = 50\n")
        assert path.read_bytes() == "Ω = 50\n".encode("utf-8")

    def test_directory_target_refused_before_any_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "sub"
        target.mkdir()

        def refuse(*args, **kwargs):
            raise AssertionError("a temp file was opened")

        monkeypatch.setattr(os, "open", refuse)
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_text(target, "x\n")
        assert info.value.filename == str(target)
        assert ".tmp_" not in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]
        assert list(target.iterdir()) == []

    def test_failed_rename_names_the_target(self, tmp_path):
        # the temp file opens, and the rename onto a name too long fails
        path = tmp_path / ("a" * 300)
        with pytest.raises(OSError) as info:
            atomic_write_text(path, "x\n")
        assert info.value.errno == errno.ENAMETOOLONG
        assert info.value.filename == str(path) and info.value.filename2 is None
        assert ".tmp_" not in str(info.value)
        assert list(tmp_path.iterdir()) == []
