"""Multimodal column plumbing: image/audio/video as opaque binary columns.

The reference ships real decoders (CLIP/SigLIP image embedding,
/root/reference/rust/src/embeddings/local/clip.rs; Whisper audio,
/root/reference/rust/src/lib.rs:587-607; video frame sampling,
/root/reference/rust/src/lib.rs:546-550 emits video_path/frame_index
metadata).  PIL/torch/onnxruntime are not available in this container,
so the IMAGE/VIDEO decode step is stubbed (deterministic fake, clearly
marked) — but the AUDIO decode is REAL: payloads are genuine RIFF/WAV
files and ``AudioSegmentActor`` parses them with stdlib ``wave``
(header + PCM frames), computing true duration and per-segment RMS
energy from decoded samples.  Only the transcription text remains a
deterministic stub (no Whisper weights here).

Asset metadata (kind, duration) is a pure function of ``doc_id`` so a
SQL oracle over the registered ``documents`` table can reproduce the
frame/segment explosions exactly:

    kind        = [image, audio, video][doc_id % 3]
    duration_ms = 200 + (doc_id * 7919) % 1800   (audio/video; image -1)

All the Ray-side plumbing is real and tested: typed schemas, actor-pool
map_batches signature (heavy model state in __init__, per-batch work in
__call__), binary-payload-aware batch sizing, and exploded frame output
layout.
"""

from __future__ import annotations

import io
import wave

import numpy as np
import pyarrow as pa

import ray.data

# bump when asset synthesis or the asset schema changes: cache keys and
# derived contract outputs fold this in so stale state is never reused
ASSET_FORMAT_VERSION = 2

# typed schema for a multimodal asset table: opaque payload + metadata
ASSETS = pa.schema([
    ("asset_id", pa.int64()),
    ("kind", pa.string()),           # image | audio | video
    ("payload", pa.binary()),        # encoded bytes (opaque)
    ("mime", pa.string()),
    ("width", pa.int32()),           # -1 when unknown/not applicable
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])

KINDS = ("image", "audio", "video")
AUDIO_RATE = 8000                    # Hz; 8 frames per ms exactly
FRAME_EVERY_MS = 250
SEGMENT_MS = 400


def asset_duration_ms(doc_ids: np.ndarray) -> np.ndarray:
    """duration_ms as a pure function of doc_id — the SQL oracle
    recomputes `200 + (doc_id * 7919) % 1800` over `documents`."""
    d = np.asarray(doc_ids, dtype=np.int64)
    dur = (200 + (d * 7919) % 1800).astype(np.int32)
    return np.where(d % 3 == 0, np.int32(-1), dur)   # images: n/a


def synth_wav_bytes(doc_id: int, duration_ms: int,
                    rate: int = AUDIO_RATE) -> bytes:
    """A real mono 16-bit PCM WAV of exactly `duration_ms` (frames =
    duration_ms * rate / 1000), samples seeded from doc_id.  Amplitude
    varies per doc so per-segment RMS is a meaningful decoded value."""
    n = duration_ms * rate // 1000
    rng = np.random.default_rng([int(doc_id), 0xA1D10])
    amp = 1000 + int(doc_id) % 9000
    samples = rng.integers(-amp, amp + 1, n).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


def assets_for_doc_ids(doc_ids: np.ndarray, seed: int = 42) -> pa.Table:
    """Asset rows derived deterministically from doc ids.  Audio
    payloads are real WAVs; image/video payloads are seeded opaque
    bytes standing in for the formats this container can't decode."""
    d = np.asarray(doc_ids, dtype=np.int64)
    kinds = np.array(KINDS)[d % 3]
    durs = asset_duration_ms(d)
    payloads, mimes = [], []
    for did, kind, dur in zip(d.tolist(), kinds.tolist(), durs.tolist()):
        if kind == "audio":
            payloads.append(synth_wav_bytes(did, dur))
            mimes.append("audio/wav")
        else:
            rng = np.random.default_rng([did, seed])
            payloads.append(rng.integers(
                0, 256, size=int(rng.integers(64, 512)),
                dtype=np.uint8).tobytes())
            mimes.append("application/octet-stream")
    return pa.table({
        "asset_id": pa.array(d),
        "kind": pa.array(kinds.tolist(), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(mimes, pa.string()),
        "width": pa.array(np.where(kinds == "image", 64, -1).astype(np.int32)),
        "height": pa.array(np.where(kinds == "image", 64, -1).astype(np.int32)),
        "duration_ms": pa.array(durs.astype(np.int32)),
    })


def synth_assets(n: int, seed: int = 42) -> pa.Table:
    """Deterministic asset table over ids 0..n-1 (test fixture)."""
    return assets_for_doc_ids(np.arange(n, dtype=np.int64), seed)


def make_assets_batch(batch: pa.Table) -> pa.Table:
    """map_batches fn: documents batch (doc_id column) -> asset rows.
    Streaming synthesis — no driver-side materialization, scales with
    the documents table."""
    return assets_for_doc_ids(batch.column("doc_id").to_numpy())


def _decode_image_stub(payload: bytes, out_size: int) -> np.ndarray:
    """STUB: a real implementation calls PIL.Image.open + resize.
    Deterministic fake: payload bytes tiled into (out_size, out_size, 3).
    Raises like a real decoder would on empty payloads."""
    if not payload:
        raise NotImplementedError("empty payload — real decoder unavailable "
                                  "in this environment")
    arr = np.frombuffer(payload, dtype=np.uint8)
    need = out_size * out_size * 3
    return np.resize(arr, need).reshape(out_size, out_size, 3)


class ImageFeatureActor:
    """Actor-pool stage: decode + resize + feature-extract image payloads.

    Mirrors the reference's heavy-init/per-batch-work split
    (/root/reference/rust/src/embeddings/local/clip.rs model load in the
    constructor): the 'model' (here a fixed projection matrix) is built
    ONCE per actor in __init__, each __call__ handles one Arrow batch.

    Use:  assets.map_batches(ImageFeatureActor, batch_format="pyarrow",
                             batch_size=64, concurrency=pool_size(),
                             num_cpus=1)
    (``pool_size`` from engine.config: the cluster-sized pool).
    Small batch_size on purpose: payloads are large binaries.
    """

    OUT_SIZE = 32
    FEAT_DIM = 16

    def __init__(self, seed: int = 7):
        rng = np.random.default_rng(seed)
        self._proj = rng.standard_normal(
            (self.OUT_SIZE * self.OUT_SIZE * 3, self.FEAT_DIM))

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, ok = [], []
        for payload in batch.column("payload").to_pylist():
            try:
                img = _decode_image_stub(payload, self.OUT_SIZE)
                feats.append((img.reshape(-1).astype(np.float64) / 255.0
                              ) @ self._proj)
                ok.append(True)
            except NotImplementedError:
                feats.append(np.zeros(self.FEAT_DIM))
                ok.append(False)   # error column, not a silent drop
        return pa.table({
            "asset_id": batch.column("asset_id"),
            "feature": pa.array([f.tolist() for f in feats],
                                pa.list_(pa.float64())),
            "decode_ok": pa.array(ok, pa.bool_()),
        })


class FrameSampleActor:
    """Actor-pool stage: explode VIDEO payloads into sampled frame rows
    (the reference's frame_index metadata layout,
    /root/reference/rust/src/lib.rs:546-550).  Decode is stubbed; the
    row-explosion layout (one output row per sampled frame, every
    `every_ms`) is real and SQL-oracle-checked via
    `unnest(range((dur + every-1) // every))` over documents."""

    def __init__(self, every_ms: int = FRAME_EVERY_MS):
        self.every_ms = every_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, ts = [], [], []
        for aid, kind, dur in zip(batch.column("asset_id").to_pylist(),
                                  batch.column("kind").to_pylist(),
                                  batch.column("duration_ms").to_pylist()):
            if kind != "video" or dur <= 0:
                continue
            for i, t in enumerate(range(0, dur, self.every_ms)):
                ids.append(aid); frames.append(i); ts.append(t)
        return pa.table({
            "asset_id": pa.array(ids, pa.int64()),
            "frame_index": pa.array(frames, pa.int32()),
            "ts_ms": pa.array(ts, pa.int32()),
        })


class AudioSegmentActor:
    """Actor-pool stage: REAL WAV decode + segment explosion with the
    reference's audio metadata layout — start/end + per-segment text
    (/root/reference/rust/src/embeddings/mod.rs:40-52 attaches
    start/end/file_name/text; the Whisper decoder loads per process,
    /root/reference/rust/src/lib.rs:587-607; segment layout per
    /root/reference/rust/src/file_processor/audio/audio_processor.rs).

    The decode is genuine: stdlib ``wave`` parses the RIFF header and
    PCM frames, duration comes from nframes/framerate, and each
    segment's RMS energy is computed from the decoded int16 samples
    (``rms_milli``).  Only TRANSCRIPTION is a deterministic stub
    (md5-derived token per (asset_id, segment) — no Whisper weights in
    this container); a real ASR model replaces ``_transcribe_stub``
    only.  Corrupt/undecodable payloads produce one decode_ok=False
    row (error column, not a silent drop).
    """

    def __init__(self, segment_ms: int = SEGMENT_MS):
        self.segment_ms = segment_ms
        # the "decoder weights" slot: heavy model state would load here
        from engine.tokenize import md5_hash64
        self._md5 = md5_hash64

    def _transcribe_stub(self, asset_id: int, segment: int) -> str:
        # int() BEFORE the mod: np.uint64 % python-int promotes to
        # float64 and silently corrupts the low bits
        idx = int(self._md5([f"{asset_id}:{segment}"])[0]) % 997
        return f"tok{idx}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, segs, starts, ends, texts, rms, ok = [], [], [], [], [], [], []
        for aid, kind, payload in zip(
                batch.column("asset_id").to_pylist(),
                batch.column("kind").to_pylist(),
                batch.column("payload").to_pylist()):
            if kind != "audio":
                continue
            try:
                with wave.open(io.BytesIO(payload)) as w:
                    rate, nframes = w.getframerate(), w.getnframes()
                    sampwidth, nch = w.getsampwidth(), w.getnchannels()
                    raw = w.readframes(nframes)
                if sampwidth != 2 or nch != 1:
                    raise wave.Error("unsupported layout")
                samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
                dur = nframes * 1000 // rate
            except (wave.Error, EOFError, ValueError):
                ids.append(aid); segs.append(-1)
                starts.append(0); ends.append(0)
                texts.append(""); rms.append(0); ok.append(False)
                continue
            for i, t in enumerate(range(0, dur, self.segment_ms)):
                end = min(t + self.segment_ms, dur)
                lo, hi = t * rate // 1000, end * rate // 1000
                seg = samples[lo:hi]
                r = float(np.sqrt(np.mean(seg * seg))) if seg.size else 0.0
                ids.append(aid); segs.append(i)
                starts.append(t); ends.append(end)
                texts.append(self._transcribe_stub(aid, i))
                rms.append(int(round(r * 1000))); ok.append(True)
        return pa.table({
            "asset_id": pa.array(ids, pa.int64()),
            "segment": pa.array(segs, pa.int32()),
            "start_ms": pa.array(starts, pa.int32()),
            "end_ms": pa.array(ends, pa.int32()),
            "text": pa.array(texts, pa.large_string()),
            "rms_milli": pa.array(rms, pa.int64()),
            "decode_ok": pa.array(ok, pa.bool_()),
        })


# ---------------------------------------------------------------------------
# REAL PNG decode path (round 5): stdlib-zlib PNG codec.
#
# The reference decodes real image files before embedding them
# (/root/reference/rust/src/embeddings/local/clip.rs loads images from
# bytes); PIL is absent here, so the engine carries its own honest PNG
# implementation: chunk parse + CRC verify + zlib inflate + all five
# scanline unfilters (None/Sub/Up/Average/Paeth, PNG spec §9).  The
# synthetic fixture pixels are a closed-form function of doc_id so a
# DuckDB oracle recomputes the per-channel sums from `documents` alone
# while the ENGINE path round-trips genuine PNG bytes (the encoder
# cycles the filter type per row, so a decoder that skips unfiltering
# fails loudly).
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
PNG_SIZE = 16                       # fixture images are 16x16 RGB


def synth_png_pixels(doc_id: int, w: int = PNG_SIZE,
                     h: int = PNG_SIZE) -> np.ndarray:
    """Deterministic RGB pixels: byte i of the w*h*3 raster is
    ``(doc_id*31 + i*7 + (i*i) % 251) % 256`` — the SQL oracle
    recomputes channel sums as sum over i≡c (mod 3) of the same
    expression.  The quadratic term breaks the complete-residue cycle a
    purely linear formula produces (which made every channel sum the
    constant 32640 — a vacuous value check)."""
    i = np.arange(w * h * 3, dtype=np.int64)
    return ((int(doc_id) * 31 + i * 7 + (i * i) % 251) % 256
            ).astype(np.uint8)


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import zlib as _z
    return (len(body).to_bytes(4, "big") + tag + body
            + _z.crc32(tag + body).to_bytes(4, "big"))


def encode_png(pixels: np.ndarray, w: int, h: int) -> bytes:
    """Minimal real PNG writer (8-bit RGB, no interlace).  Scanline
    filter type cycles ``row % 5`` so every filter appears in every
    fixture image — the decoder must implement true unfiltering."""
    import zlib as _z
    px = np.asarray(pixels, dtype=np.uint8).reshape(h, w * 3)
    bpp = 3
    raw = bytearray()
    prev = np.zeros(w * 3, dtype=np.int64)
    for r in range(h):
        row = px[r].astype(np.int64)
        a = np.concatenate((np.zeros(bpp, dtype=np.int64), row[:-bpp]))
        b = prev
        c = np.concatenate((np.zeros(bpp, dtype=np.int64), prev[:-bpp]))
        ft = r % 5
        if ft == 0:
            filt = row
        elif ft == 1:
            filt = row - a
        elif ft == 2:
            filt = row - b
        elif ft == 3:
            filt = row - (a + b) // 2
        else:
            p = a + b - c
            pa_, pb_, pc_ = np.abs(p - a), np.abs(p - b), np.abs(p - c)
            pred = np.where((pa_ <= pb_) & (pa_ <= pc_), a,
                            np.where(pb_ <= pc_, b, c))
            filt = row - pred
        raw.append(ft)
        raw.extend((filt % 256).astype(np.uint8).tobytes())
        prev = row
    ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
            + bytes([8, 2, 0, 0, 0]))       # 8-bit, color type 2 (RGB)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", _z.compress(bytes(raw)))
            + _png_chunk(b"IEND", b""))


def decode_png(data: bytes) -> tuple[int, int, np.ndarray]:
    """Real PNG decoder for the subset the engine emits (8-bit RGB,
    non-interlaced): chunk walk with CRC verification, zlib inflate,
    per-scanline unfilter (all five PNG filter types).  Raises
    ValueError on anything malformed — surfaced as decode_ok=False by
    the actor, the same error-column contract as the audio decoder."""
    import zlib as _z
    if data[:8] != _PNG_SIG:
        raise ValueError("bad PNG signature")
    pos, w = 8, None
    idat = bytearray()
    while pos + 8 <= len(data):
        ln = int.from_bytes(data[pos:pos + 4], "big")
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + ln]
        crc = data[pos + 8 + ln:pos + 12 + ln]
        if len(body) != ln or len(crc) != 4:
            raise ValueError("truncated chunk")
        if _z.crc32(tag + body) != int.from_bytes(crc, "big"):
            raise ValueError("chunk CRC mismatch")
        if tag == b"IHDR":
            w = int.from_bytes(body[0:4], "big")
            h = int.from_bytes(body[4:8], "big")
            bit_depth, color_type, _, _, interlace = body[8:13]
            if (bit_depth, color_type, interlace) != (8, 2, 0):
                raise ValueError("unsupported PNG layout")
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
        pos += 12 + ln
    if w is None or not idat:
        raise ValueError("missing IHDR/IDAT")
    raw = _z.decompress(bytes(idat))
    stride, bpp = w * 3, 3
    if len(raw) != h * (stride + 1):
        raise ValueError("raster size mismatch")
    out = np.zeros((h, stride), dtype=np.int64)
    prev = np.zeros(stride, dtype=np.int64)
    for r in range(h):
        line = raw[r * (stride + 1):(r + 1) * (stride + 1)]
        ft, filt = line[0], np.frombuffer(
            line[1:], dtype=np.uint8).astype(np.int64)
        row = np.zeros(stride, dtype=np.int64)
        if ft == 0:
            row[:] = filt
        elif ft == 2:
            row[:] = (filt + prev) % 256
        elif ft in (1, 3, 4):
            # left-dependent filters need the sequential per-pixel scan
            c_row = np.concatenate(
                (np.zeros(bpp, dtype=np.int64), prev[:-bpp]))
            for x in range(stride):
                a = row[x - bpp] if x >= bpp else 0
                if ft == 1:
                    row[x] = (filt[x] + a) % 256
                elif ft == 3:
                    row[x] = (filt[x] + (a + prev[x]) // 2) % 256
                else:
                    b, c = prev[x], c_row[x]
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    if pa_ <= pb_ and pa_ <= pc_:
                        pred = a
                    elif pb_ <= pc_:
                        pred = b
                    else:
                        pred = c
                    row[x] = (filt[x] + pred) % 256
        else:
            raise ValueError(f"unknown filter type {ft}")
        out[r] = row
        prev = row
    return w, h, out.reshape(-1).astype(np.uint8)


def synth_png_payload(doc_id: int) -> bytes:
    """Real PNG bytes for the fixture pixels of ``doc_id``."""
    return encode_png(synth_png_pixels(doc_id), PNG_SIZE, PNG_SIZE)


class PngImageFeatureActor:
    """Actor-pool stage: REAL PNG decode (chunk/CRC/inflate/unfilter)
    + per-channel integer pixel sums.  Same heavy-init/per-batch shape
    as ImageFeatureActor; decode failures produce decode_ok=False rows
    with zeroed features (error column, never a silent drop)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sums = np.zeros((n, 3), dtype=np.int64)
        npx = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        import zlib as _z
        for r, payload in enumerate(batch.column("payload").to_pylist()):
            try:
                w, h, px = decode_png(payload)
            except (ValueError, _z.error, IndexError):
                continue
            ok[r] = True
            npx[r] = w * h
            px64 = px.astype(np.int64)
            for c in range(3):
                sums[r, c] = int(px64[c::3].sum())
        out = {"asset_id": batch.column("asset_id"),
               "n_px": pa.array(npx),
               "decode_ok": pa.array(ok.tolist(), pa.bool_())}
        for c in range(3):
            out[f"c{c}_sum"] = pa.array(sums[:, c])
        return pa.table(out)


# ---------------------------------------------------------------------------
# md5-mode image feature path (oracle parity for the stubbed decoder)
# ---------------------------------------------------------------------------

MD5_IMAGE_WORDS = 48     # 8-byte words per synthetic payload (384 bytes)


def md5_image_payload(doc_id: int, n_words: int = MD5_IMAGE_WORDS) -> bytes:
    """Synthetic image payload whose bytes are an md5 chain: word j is
    md5(f"{doc_id}|img|{j}") digest bytes 8..16 (little-endian — the
    exact integer DuckDB's md5_number_lower returns for the same
    string).  The FEATURE EXTRACTION below reads only the payload
    bytes, like a real decoder; the md5 construction is what lets the
    SQL oracle recompute the features from `documents` alone."""
    import hashlib
    return b"".join(
        hashlib.md5(f"{doc_id}|img|{j}".encode()).digest()[8:16]
        for j in range(n_words))


class Md5ImageFeatureActor:
    """Actor-pool stage: per-channel word sums over the payload bytes
    (stub 'decode' with the same init/call split as ImageFeatureActor,
    but arithmetic a SQL oracle reproduces bit-for-bit).  Words are
    little-endian uint64 taken mod 2^32 so three channel sums of up to
    ~2^32 words stay exact in int64 on both sides.  Corrupt payloads
    (empty / not 8-byte aligned) yield decode_ok=False rows."""

    def __init__(self, n_channels: int = 3):
        self.n_channels = n_channels

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sums = np.zeros((n, self.n_channels), dtype=np.int64)
        words = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for r, payload in enumerate(batch.column("payload").to_pylist()):
            if not payload or len(payload) % 8:
                continue
            u = np.frombuffer(payload, dtype="<u8") % np.uint64(1 << 32)
            ok[r] = True
            words[r] = u.size
            for c in range(self.n_channels):
                sums[r, c] = int(u[c::self.n_channels].sum(dtype=np.uint64))
        out = {"asset_id": batch.column("asset_id"),
               "n_words": pa.array(words),
               "decode_ok": pa.array(ok.tolist(), pa.bool_())}
        for c in range(self.n_channels):
            out[f"c{c}_sum"] = pa.array(sums[:, c])
        return pa.table(out)
