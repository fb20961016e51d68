"""Extract numpy's ziggurat tables for the normal distribution into lmtsim.

    python3 tools/make_ziggurat_tables.py

numpy's ``Generator.standard_normal`` is the Marsaglia-Tsang ziggurat
(J. Stat. Softw. 5(8), 2000) over the 256-entry tables ``ki_double``
(uint64 acceptance thresholds), ``wi_double`` (float64 layer widths) and
``fi_double`` (float64 density at each layer's edge, for the wedge test).
They are not exported from Python, but numpy ships them in its static
library ``numpy/random/lib/libnpyrandom.a``, member
``src_distributions_distributions.c.o``, as local symbols.  This script
reads the ar archive and the ELF64 object in pure Python, looks the
symbols up by name in the symbol table, and writes them to
``src/lmtsim/ziggurat_tables.npy``, one record ``(ki, wi, fi)`` per layer.
``tests/test_streams.py`` re-extracts them and compares.
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parents[1] / "src" / "lmtsim" / "ziggurat_tables.npy"
ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
LAYERS = 256
DTYPE = np.dtype([("ki", "<u8"), ("wi", "<f8"), ("fi", "<f8")])

_AR_MAGIC = b"!<arch>\n"
_AR_HEADER = 60
_SHT_SYMTAB, _SHT_NOBITS = 2, 8


class TableError(ValueError):
    """Raised when the archive or object does not have the expected layout."""


def ar_member(archive: bytes, name: str) -> bytes:
    """Contents of member ``name`` of a System V / GNU ar archive."""
    if not archive.startswith(_AR_MAGIC):
        raise TableError("not an ar archive")
    pos, long_names = len(_AR_MAGIC), b""
    while pos + _AR_HEADER <= len(archive):
        header = archive[pos:pos + _AR_HEADER]
        if header[58:60] != b"`\n":
            raise TableError(f"bad ar member header at offset {pos}")
        raw = header[:16].decode("ascii").rstrip()
        size = int(header[48:58])
        body = archive[pos + _AR_HEADER:pos + _AR_HEADER + size]
        pos += _AR_HEADER + size + (size & 1)
        if raw == "//":  # GNU table of names longer than 15 characters
            long_names = body
            continue
        if raw.startswith("/") and raw[1:].isdigit():
            start = int(raw[1:])
            member = long_names[start:long_names.index(b"/\n", start)].decode("ascii")
        else:
            member = raw.removesuffix("/")
        if member == name:
            return body
    raise TableError(f"archive has no member {name!r}")


def elf_symbols(obj: bytes, names: tuple[str, ...]) -> dict[str, bytes]:
    """Bytes of each named symbol of a little-endian ELF64 object file,
    looked up in its symbol table and read from the section it lies in."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise TableError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + j * shentsize)
                for j in range(shnum)]
    found = {}
    for _, sh_type, _, _, offset, size, link, _, _, entsize in sections:
        if sh_type != _SHT_SYMTAB:
            continue
        strtab_offset = sections[link][4]
        for at in range(offset, offset + size, entsize):
            st_name, _, _, shndx, value, length = struct.unpack_from("<IBBHQQ", obj, at)
            end = obj.index(b"\0", strtab_offset + st_name)
            symbol = obj[strtab_offset + st_name:end].decode("ascii")
            if symbol not in names:
                continue
            if shndx == 0 or shndx >= shnum or sections[shndx][1] == _SHT_NOBITS:
                raise TableError(f"symbol {symbol!r} has no data in the object")
            start = sections[shndx][4] + value
            found[symbol] = obj[start:start + length]
    missing = set(names) - set(found)
    if missing:
        raise TableError(f"object has no symbols {sorted(missing)}")
    return found


def extract(archive: Path = ARCHIVE) -> np.ndarray:
    """numpy's ``ki_double``, ``wi_double`` and ``fi_double`` as one record
    per layer."""
    symbols = elf_symbols(ar_member(archive.read_bytes(), MEMBER),
                          ("ki_double", "wi_double", "fi_double"))
    for name, data in symbols.items():
        if len(data) != 8 * LAYERS:
            raise TableError(f"{name}: {len(data)} bytes, expected {8 * LAYERS}")
    tables = np.empty(LAYERS, dtype=DTYPE)
    tables["ki"] = np.frombuffer(symbols["ki_double"], dtype="<u8")
    tables["wi"] = np.frombuffer(symbols["wi_double"], dtype="<f8")
    tables["fi"] = np.frombuffer(symbols["fi_double"], dtype="<f8")
    return tables


def main() -> int:
    try:
        tables = extract()
    except (OSError, TableError) as exc:
        print(f"error: {ARCHIVE}: {exc}", file=sys.stderr)
        return 1
    np.save(OUT, tables)
    print(f"wrote {OUT} ({LAYERS} layers, from numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
