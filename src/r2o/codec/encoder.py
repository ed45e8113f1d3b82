"""QR encoding: bitstream assembly, block interleaving, mask choice, render."""

from __future__ import annotations

import itertools

import numpy as np

from . import gf256, matrix, png, tables
from .errors import CapacityExceeded, TargetTooSmall
from .models import IndirectionPayload, PseudoImage, QrConfig

PAD_BYTES = (0xEC, 0x11)
QUIET_ZONE = 4  # light modules around the symbol on every side


def serialize_payload(payload: IndirectionPayload) -> bytes:
    """A pseudo-image carries exactly the locator, nothing else."""
    return payload.validate().locator.encode("ascii")


def choose_version(n_bytes: int, ec_level: str, min_version: int = 1) -> int:
    if not tables.MIN_VERSION <= min_version <= tables.MAX_VERSION:
        raise ValueError(f"min_version out of range: {min_version}")
    for version in range(min_version, tables.MAX_VERSION + 1):
        if n_bytes <= tables.byte_capacity(version, ec_level):
            return version
    raise CapacityExceeded(
        f"{n_bytes} bytes exceed version {tables.MAX_VERSION} "
        f"capacity at level {ec_level}")


def build_data_codewords(data: bytes, version: int, ec_level: str) -> list[int]:
    """Byte-mode bitstream with terminator and alternating pad bytes.

    The stream is built as one integer. Mode and count take 12 or 20 bits,
    so the stream stops 4 bits short of a byte boundary and, because the
    capacity is whole bytes, always has room for the 4-bit terminator,
    which ends it on that boundary.
    """
    n_data = tables.data_codewords(version, ec_level)
    cci_bits = 8 if version <= 9 else 16
    n_bits = 4 + cci_bits + 8 * len(data)
    if n_bits > 8 * n_data:
        raise CapacityExceeded("bitstream exceeds selected version capacity")
    header = 0b0100 << cci_bits | len(data)
    stream = (header << 8 * len(data) | int.from_bytes(data, "big")) << 4
    out = list(stream.to_bytes((n_bits + 4) // 8, "big"))
    out += [PAD_BYTES[i % 2] for i in range(n_data - len(out))]
    return out


def interleave_blocks(data_cw: list[int], version: int, ec_level: str) -> list[int]:
    """Split into RS blocks, append parity, interleave per the standard."""
    order, ks, nsym = tables.block_layout(version, ec_level)
    blocks = []
    for end, k in zip(itertools.accumulate(ks), ks):
        data = bytes(data_cw[end - k:end])
        blocks.append(data + bytes(gf256.rs_encode(data, nsym)))
    out = np.empty(len(order), dtype=np.uint8)
    out[order] = np.frombuffer(b"".join(blocks), dtype=np.uint8)
    return out.tolist()


def encode_symbol(data: bytes, ec_level: str = "M",
                  min_version: int = 1) -> tuple[np.ndarray, int, int]:
    """Encode raw bytes to a module matrix; returns (matrix, version, mask)."""
    version = choose_version(len(data), ec_level, min_version)
    data_cw = build_data_codewords(data, version, ec_level)
    codewords = interleave_blocks(data_cw, version, ec_level)

    # all 8 masked candidates as one stack; the first lowest score wins
    candidates = np.repeat(matrix.base_matrix(version)[None], 8, axis=0)
    for mask_id, m in enumerate(candidates):
        matrix.place_codewords(m, version, codewords, mask_id)
        matrix.place_format_info(m, ec_level, mask_id)
    scores = matrix.penalty_scores(candidates)
    mask_id = scores.index(min(scores))
    return candidates[mask_id].copy(), version, mask_id


def render(modules: np.ndarray, config: QrConfig) -> PseudoImage:
    """Rasterize a module matrix to a target_size square 1-bit image.

    Each module is the largest whole number of pixels that fits, and the
    symbol with its quiet zone is centred on a white canvas. Each distinct
    canvas row is drawn once, enlarged across, padded and packed to bytes,
    and the canvas rows are gathered from those: copying whole packed rows
    is cheaper than enlarging or placing the full raster.
    """
    n = modules.shape[0]
    edge = n + 2 * QUIET_ZONE
    canvas_edge = config.target_size
    scale = canvas_edge // edge
    if scale < 1:
        raise TargetTooSmall(
            f"target_size {canvas_edge} cannot hold a {edge}-module symbol")
    size = edge * scale
    off = (canvas_edge - size) // 2

    # each module row drawn across the canvas, then an all-white row for
    # the padding; dark modules are False
    rows = np.ones((edge + 1, canvas_edge), dtype=bool)
    left = off + QUIET_ZONE * scale
    rows[QUIET_ZONE:QUIET_ZONE + n, left:left + n * scale] = (
        modules == 0).repeat(scale, axis=1)
    row_of = np.full(canvas_edge, edge, dtype=np.intp)
    row_of[off:off + size] = np.arange(size) // scale
    return PseudoImage(rows=png.pack_rows(rows)[row_of], width=canvas_edge)


def encode_qr(payload: IndirectionPayload,
              config: QrConfig | None = None) -> PseudoImage:
    """Encode a payload into a square pseudo-image QR symbol."""
    config = config or QrConfig()
    if config.ec_level not in tables.EC_LEVELS:
        raise ValueError(f"unknown EC level {config.ec_level!r}")
    data = serialize_payload(payload)
    modules, _, _ = encode_symbol(data, config.ec_level, config.min_version)
    return render(modules, config)
