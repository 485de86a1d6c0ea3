"""HTTP serving surface (reference S9): OpenAI-compatible embeddings +
health check, plus the engine's own BM25 search endpoint.

Reference: the actix-web server exposes ``GET /health_check`` and
``POST /v1/embeddings`` with the OpenAI response shape
{object, data: [{object, index, embedding}], model, usage} and typed
error bodies {error: {message, type, code}}
(/root/reference/server/src/lib.rs:142-330).  This module mirrors that
contract over stdlib ``http.server`` (no web framework in the sandbox):

    GET  /health_check   -> 200 empty
    POST /v1/embeddings  -> OpenAI embedding response (hashing embedder
                            stands in for model weights, same slot)
    POST /v1/search      -> {"hits": [{doc_id, score, url}]} over the
                            built index (the capability the reference
                            delegates to external vector DBs); accepts
                            filter/range/facet/facet_histogram/exclude/
                            snippets and phrase=true (+slop=N) for
                            exact-phrase / proximity top-k on a
                            positional index
    POST /v1/suggest     -> prefix autocomplete over the dictionary

Multimodal route parity (reference server/src/lib.rs:321-838):

    POST /v1/pdf_embeddings         {model, files:[paths]} -> per-CHUNK
        embedding rows {object, index, embedding, metadata, text}
        (sentence chunking at 1000 chars, the reference
        TextEmbedConfig::default(); engine/pdf.py extraction)
    POST /v1/pdf_embeddings/upload  multipart/form-data with a `model`
        text field + one or more `files` PDF parts (filename *.pdf or
        content-type application/pdf), same response
    POST /v1/image_embeddings       {model, images:[base64|data-url]}
        -> {object, data:[{object, index, embedding, metadata}], model}
        (engine/multimodal.ImageFeatureActor feature slot — a vision
        model's stand-in, like the hashing embedder for text)

Production path: the same handlers behind a real ASGI server or
``ray serve``; this threaded server is the sandbox-complete tier and
the test surface.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from engine.docvalues import DocValuesMissing
from engine.embed import HashingEmbedder
from engine.tokenize import tokenize


def _error(message: str, etype: str, code: str) -> dict:
    # reference error shape, server/src/lib.rs ErrorResponse/ErrorDetail
    return {"error": {"message": message, "type": etype, "code": code}}


def _internal_error(e: Exception) -> tuple[int, dict]:
    # a supported call failed inside the engine: a server fault (the
    # capability probes answer 400 before any call for missing shapes)
    return 500, _error(f"internal error: {e}", "internal_error",
                       "internal_error")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# /v1/search shape -> (what, error code) when a serving tier lacks it
_UNSUPPORTED = {
    "search": ("filter/facet", "unsupported_filter"),
    "search_phrase": ("phrase", "unsupported_phrase"),
    "search_weighted": ("weighted-term search", "unsupported_weighted"),
}


# known magic prefixes for the classifier's decode-and-sniff step
_IMAGE_MAGICS = (b"\xff\xd8\xff", b"\x89PNG\r\n\x1a\n", b"GIF8",
                 b"BM", b"RIFF")

# magic -> extension, the reference's image::guess_format mapping
# (server/src/lib.rs:684-694 decode_base64_to_temp_file)
_MAGIC_EXT = ((b"\xff\xd8\xff", "jpg"), (b"\x89PNG\r\n\x1a\n", "png"),
              (b"GIF8", "gif"), (b"BM", "bmp"), (b"RIFF", "webp"))


def decode_base64_image(s: str) -> tuple[bytes, str]:
    """data-URL or bare base64 -> (raw bytes, extension).  Raises
    ValueError with the reference's failure wording when the payload is
    not valid base64 or does not sniff as a known image format
    (server/src/lib.rs:676-708)."""
    data = s
    if data.startswith("data:"):
        _, _, data = data.partition(",")
        if not data:
            raise ValueError("Invalid data URL format")
    try:
        raw = base64.b64decode(data.strip(), validate=True)
    except (binascii.Error, ValueError) as e:
        raise ValueError(f"Failed to decode base64: {e}") from e
    for magic, ext in _MAGIC_EXT:
        if raw.startswith(magic):
            return raw, ext
    raise ValueError("Failed to read image: unknown format")


def parse_multipart(content_type: str, body: bytes) -> list[tuple]:
    """multipart/form-data -> [(field_name, filename, content_type,
    payload bytes)].  Stdlib email parser (no web framework in the
    sandbox): the body is wrapped in a synthetic MIME header so the
    boundary from the request's Content-Type drives the split; binary
    part payloads pass through untouched (no transfer encoding in
    form-data parts).  Raises ValueError on a non-multipart or
    boundary-less request."""
    import email
    import email.policy
    if "multipart/form-data" not in (content_type or ""):
        raise ValueError("expected multipart/form-data")
    if "boundary=" not in content_type:
        raise ValueError("missing multipart boundary")
    msg = email.message_from_bytes(
        b"Content-Type: " + content_type.encode("latin-1")
        + b"\r\nMIME-Version: 1.0\r\n\r\n" + body,
        policy=email.policy.HTTP)
    if not msg.is_multipart():
        raise ValueError("malformed multipart body")
    out = []
    for part in msg.iter_parts():
        name = part.get_param("name", header="content-disposition")
        payload = part.get_payload(decode=True)
        out.append((name, part.get_filename(), part.get_content_type(),
                    payload if payload is not None else b""))
    return out


def is_base64_image(s: str) -> bool:
    """Input classifier (reference M11, server/src/lib.rs:624-656):
    data:image/ URLs are images; otherwise a >=100-char pure-base64
    string that decodes (F9) to bytes with a known image magic."""
    if s.startswith("data:image/"):
        return True
    data = s.strip()
    if len(data) < 100:
        return False
    if not all(c.isalnum() or c in "+/=" for c in data):
        return False
    import base64 as b64
    import binascii
    try:
        raw = b64.b64decode(data, validate=True)
    except (binascii.Error, ValueError):
        return False
    return raw.startswith(_IMAGE_MAGICS)


class EngineHttpServer:
    """Threaded HTTP front over a warm embedder (+ optional index)."""

    def __init__(self, index_dir: str | None = None, dim: int = 64,
                 host: str = "127.0.0.1", port: int = 0, service=None,
                 pdf_roots: tuple[str, ...] | None = None):
        self.embedder = HashingEmbedder(dim=dim)
        self.model_name = f"hashing-{dim}"
        self.index = None
        # /v1/pdf_embeddings takes server-side *.pdf PATHS (reference
        # parity, server/src/lib.rs:321-410) — a local-file read
        # surface if the server is ever bound beyond loopback.
        # pdf_roots restricts it to the given directory trees
        # (realpath-prefix check); None keeps the reference's
        # unrestricted loopback behavior.
        self.pdf_roots = (tuple(os.path.realpath(r) for r in pdf_roots)
                          if pdf_roots else None)
        # optional actor-tier backend (engine.serve QueryService /
        # ShardedQueryService / DocShardedQueryService): /v1/search
        # routes to service.search(query, k) instead of the in-process
        # index — the cluster-serving front (tools/serve_job.py)
        self.service = service
        # vision feature slot: projection built once per server (the
        # reference builds the vision embedder per request from HF —
        # warm-start here, same heavy-init/cheap-call split)
        from engine.multimodal import ImageFeatureActor
        self._image_model = ImageFeatureActor()
        if index_dir is not None:
            from engine.query import InvertedIndex
            self.index = InvertedIndex(index_dir)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):  # quiet
                pass

            def _send(self, status: int, payload: dict | None):
                try:
                    # strict JSON: NaN / Infinity are not JSON tokens
                    body = (b"" if payload is None else
                            json.dumps(payload, allow_nan=False).encode())
                except ValueError as e:
                    status, body = 500, json.dumps(
                        _internal_error(e)[1]).encode()
                self.send_response(status)
                if body:
                    self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if body:
                    self.wfile.write(body)

            def do_GET(self):
                if self.path == "/health_check":
                    self._send(200, None)
                else:
                    self._send(404, _error("not found", "invalid_request_error",
                                           "unknown_route"))

            def do_POST(self):
                n = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(n)
                if self.path == "/v1/pdf_embeddings/upload":
                    # multipart, not JSON — needs the raw body + headers
                    try:
                        self._send(*outer._pdf_upload(
                            self.headers.get("Content-Type", ""), body))
                    except Exception:
                        # malformed multipart must answer a JSON 500,
                        # not kill the handler thread mid-response
                        self._send(500, _error(
                            "upload handling failed",
                            "internal_error", "upload_error"))
                    return
                try:
                    req = json.loads(body or b"{}")
                except (ValueError, json.JSONDecodeError):
                    self._send(400, _error("invalid JSON body",
                                           "invalid_request_error",
                                           "bad_json"))
                    return
                if not isinstance(req, dict):
                    self._send(400, _error("JSON body must be an object",
                                           "invalid_request_error",
                                           "invalid_request"))
                    return
                route = {"/v1/embeddings": outer._embeddings,
                         "/v1/search": outer._search,
                         "/v1/suggest": outer._suggest,
                         "/v1/pdf_embeddings": outer._pdf_embeddings,
                         "/v1/image_embeddings": outer._image_embeddings,
                         }.get(self.path)
                if route is None:
                    self._send(404, _error("not found", "invalid_request_error",
                                           "unknown_route"))
                    return
                try:
                    out = route(req)
                except Exception as e:
                    # an engine fault (a missing index part, an
                    # AttributeError inside a supported call): a JSON
                    # 500, never a dropped connection
                    out = _internal_error(e)
                self._send(*out)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.port = self._httpd.server_port
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)

    # -- handlers (pure functions of the request dict; unit-testable) -----
    def _embeddings(self, req: dict) -> tuple[int, dict]:
        inputs = req.get("input")
        if isinstance(inputs, str):
            inputs = [inputs]
        if not inputs:
            # reference: empty input -> invalid_request_error/empty_input
            return 400, _error("Input cannot be empty",
                               "invalid_request_error", "empty_input")
        if not all(isinstance(x, str) for x in inputs):
            return 400, _error("Inputs must be strings",
                               "invalid_request_error", "bad_input_type")
        # input-type routing (reference server/src/lib.rs:161-173):
        # mixed text/image -> error; all-image -> unsupported here (the
        # hashing embedder is text-only, like a non-vision model)
        img = [is_base64_image(x) for x in inputs]
        if any(img) and not all(img):
            return 400, _error(
                "Mixed input types detected. Please provide either all "
                "text inputs or all base64 image inputs.",
                "invalid_request_error", "mixed_input_types")
        if all(img):
            return 400, _error(
                f"Model '{req.get('model', self.model_name)}' does not "
                "support image embeddings. Please use a vision model.",
                "invalid_request_error", "unsupported_model")
        vecs = self.embedder.embed_texts(inputs)
        n_tokens = sum(len(tokenize(t)) for t in inputs)
        return 200, {
            "object": "list",
            "data": [{"object": "embedding", "index": i,
                      "embedding": [float(v) for v in vecs[i]]}
                     for i in range(len(inputs))],
            "model": req.get("model", self.model_name),
            "usage": {"prompt_tokens": n_tokens, "total_tokens": n_tokens},
        }

    def _backend(self):
        """The service tier, or else the local index.  Handler threads
        call either without a lock: nothing mutates a loader after
        construction (its caches lock themselves, and its lazy part and
        doc-values loads are idempotent single assignments)."""
        return self.service if self.service is not None else self.index

    def _search(self, req: dict) -> tuple[int, dict]:
        backend = self._backend()
        if backend is None:
            return 400, _error("no index mounted", "invalid_request_error",
                               "no_index")
        query = req.get("query", "")
        if not isinstance(query, str):
            return 400, _error("query must be a string",
                               "invalid_request_error", "invalid_request")
        try:
            k = int(req.get("k", 10))
            # offset=N pages past the first N hits: any backend's
            # (k+N)-row answer is an exact prefix of the full ranking
            # (every tier's top-k is pinned bit-identical to the local
            # engine), so fetch k+offset and slice — the classic
            # from/size shape
            offset = int(req.get("offset", 0))
            slop = int(req.get("slop", 0))
        except (TypeError, ValueError):
            # non-numeric k/offset/slop is a client error, not a
            # handler-thread crash — same 400 shape as offset<0
            return 400, _error("k, offset and slop must be integers",
                               "invalid_request_error", "invalid_request")
        if offset < 0:
            return 400, _error("offset must be >= 0",
                               "invalid_request_error", "invalid_request")
        # doc-values filter/facets: {"filter": {"col": ..., "values":
        # [...]}, "facet": "col"} — engine/docvalues.py semantics
        where = None
        flt = req.get("filter")
        if flt:
            # a filter without values would match no document: reject it
            vals = (flt.get("values", flt.get("value"))
                    if isinstance(flt, dict) else None)
            if vals is None or "col" not in flt:
                return 400, _error(
                    'filter must be an object {"col": ..., "values": [...]}',
                    "invalid_request_error", "invalid_request")
            if not isinstance(vals, (list, tuple)):
                vals = [vals]
            where = (flt["col"], tuple(vals))
        kwargs = {"where": where} if where is not None else {}
        # {"range": {"col": ..., "lo": n, "hi": n}}: lo <= col <= hi
        rng = req.get("range")
        if rng is not None:
            if not (isinstance(rng, dict) and isinstance(rng.get("col"), str)
                    and _is_number(rng.get("lo"))
                    and _is_number(rng.get("hi"))):
                return 400, _error(
                    'range must be an object {"col": ..., "lo": number, '
                    '"hi": number}', "invalid_request_error",
                    "invalid_request")
            kwargs["where_range"] = (rng["col"], rng["lo"], rng["hi"])
        facet_col = req.get("facet")
        hist = req.get("facet_histogram")  # {"col": ..., "edges": [...]}
        if hist is not None and not (isinstance(hist, dict)
                                     and isinstance(hist.get("col"), str)
                                     and isinstance(hist.get("edges"), list)):
            return 400, _error(
                'facet_histogram must be an object {"col": ..., '
                '"edges": [...]}', "invalid_request_error",
                "invalid_request")
        exclude = req.get("exclude")
        # snippets=true: best query-term window per hit (the q_snippets
        # rule, engine/docops.best_snippet_window) computed over the
        # TOP-K hits only — doc text hydrates through the doc-values
        # sidecar (attach_doc_values(..., ["text"]) must have run)
        snippets = bool(req.get("snippets"))
        snippet_col = str(req.get("snippet_col", "text"))
        # phrase=true (+ optional slop=N): exact-phrase / proximity
        # top-k — search_phrase semantics, needs a positional index
        phrase = bool(req.get("phrase"))
        if phrase and (facet_col or hist):
            # facets aggregate over the disjunctive match set; a
            # phrase-restricted facet is a different (unimplemented)
            # aggregation — reject instead of answering the wrong one
            return 400, _error(
                "facet aggregation is not supported with phrase=true",
                "invalid_request_error", "unsupported_facet")
        # boolean clauses: must (+term gate), require_all (pure AND)
        must = req.get("must")
        require_all = bool(req.get("require_all"))
        if phrase and (must or require_all):
            return 400, _error(
                "must/require_all are not supported with phrase=true "
                "(a phrase is already conjunctive over its terms)",
                "invalid_request_error", "invalid_request")
        # with_total=true: hits.total — the gated candidate-set size
        with_total = bool(req.get("with_total"))
        if phrase and with_total:
            return 400, _error(
                "with_total is not supported with phrase=true",
                "invalid_request_error", "invalid_request")
        # weights={"term": w, ...}: weighted-term (learned-sparse /
        # SPLADE-seam) retrieval — engine/query.py search_weighted.
        # Terms are taken verbatim (the caller supplies an analyzed
        # sparse query vector).  The doc-values "filter" and "range"
        # compose (per-doc predicates — tenant-filtered sparse
        # retrieval); the clause machinery (phrase, boolean gates,
        # facets) scores TOKENIZED queries and does not compose with a
        # weight vector, so those combinations are a clean 400 instead
        # of a silently-ignored knob.
        weights = req.get("weights")
        if weights is not None:
            if (query or phrase or must or require_all or exclude
                    or facet_col or hist):
                return 400, _error(
                    "weights does not combine with query/phrase/boolean/"
                    "facet parameters",
                    "invalid_request_error", "invalid_request")
            if (not isinstance(weights, dict) or not weights
                    or not all(map(_is_number, weights.values()))):
                return 400, _error(
                    "weights must be a non-empty {term: number} object",
                    "invalid_request_error", "invalid_request")
            weights = {str(t): float(v) for t, v in weights.items()}
            # the weight KEYS are the query terms (already analyzed):
            # snippets and totals take them verbatim
            search, count = "search_weighted", "match_count_weighted"
            target, snip_q, search_kw = weights, list(weights), kwargs
        else:
            if exclude:
                kwargs["exclude"] = str(exclude)
            if must:
                kwargs["must"] = str(must)
            if require_all:
                kwargs["require_all"] = True
            search = "search_phrase" if phrase else "search"
            count, target, snip_q = "match_count", query, query
            search_kw = dict(kwargs, slop=slop) if phrase else kwargs
        # capability probe: a serving tier without the requested shape
        # (term-sharded fronts cannot run a phrase without shipping
        # position runs between shards) is a client-visible 400, while
        # an AttributeError raised INSIDE a supported call is a server
        # fault and answers 500 below
        wanted = [search, count if with_total else None,
                  "facet_counts" if facet_col else None,
                  "facet_histogram" if hist else None]
        if not all(hasattr(backend, m) for m in wanted if m):
            what, code = _UNSUPPORTED[search]
            return 400, _error(f"{what} not supported by this serving "
                               "tier", "invalid_request_error", code)
        facets = hrows = snips = total = None
        try:
            hits = getattr(backend, search)(
                target, k=k + offset, **search_kw)[offset:]
            ids = [d for d, _ in hits]
            urls = backend.url_of(ids) if hits else []
            if with_total:
                total = getattr(backend, count)(target, **kwargs)
            if snippets and hits:
                # every serving tier hydrates shard/replica-side
                # (serve.py snippets_of) — only window strings move
                snips = backend.snippets_of(snip_q, ids, snippet_col)
            if facet_col:
                facets = backend.facet_counts(query, facet_col, **kwargs)
            if hist:
                hrows = backend.facet_histogram(
                    query, hist["col"], hist["edges"], **kwargs)
        except (FileNotFoundError, DocValuesMissing) as e:  # sidecar/col
            return 400, _error(str(e), "invalid_request_error",
                               "no_doc_values")
        except ValueError as e:
            # engine-side request-shape errors with a clear message
            # (e.g. phrase search over a non-positional index)
            return 400, _error(str(e), "invalid_request_error",
                               "invalid_request")
        except TypeError as e:
            # deliberate engine-side type errors (e.g. facet_histogram
            # over a non-numeric doc-values column) keep their message;
            # a blanket catch here used to mask them as
            # unsupported_filter
            return 400, _error(str(e), "invalid_request_error",
                               "bad_column_type")
        if not all(math.isfinite(s) for _, s in hits):
            # finite weights whose products overflow
            return 400, _error("a hit's score is not finite (weights too "
                               "large)", "invalid_request_error",
                               "invalid_request")
        out = {"hits": [
            {"doc_id": int(d), "score": float(s), "url": u}
            for (d, s), u in zip(hits, urls)]}
        if snips is not None:
            for h, sn in zip(out["hits"], snips):
                h["snippet"] = sn
        if facets is not None:
            out["facets"] = [{"value": v, "n_docs": int(n)}
                             for v, n in facets]
        if hrows is not None:
            out["histogram"] = [{"lo": lo, "hi": hi, "n_docs": int(n)}
                                for lo, hi, n in hrows]
        if total is not None:
            out["total"] = int(total)
        return 200, out

    # -- multimodal routes (reference server/src/lib.rs:321-838) ----------
    def _pdf_embeddings(self, req: dict) -> tuple[int, dict]:
        """POST /v1/pdf_embeddings {model, files:[paths]} — the
        reference's path-list PDF route (server/src/lib.rs:321-410):
        validate every path BEFORE any work, then extract -> sentence
        chunks -> per-chunk embedding rows."""
        files = req.get("files") or []
        model = req.get("model", self.model_name)
        if not files:
            return 400, _error("File list cannot be empty",
                               "invalid_request_error", "empty_files")
        for f in files:
            f = str(f)
            if not f.lower().endswith(".pdf"):
                return 400, _error(
                    f"Unsupported file type for '{f}'. Expected a PDF.",
                    "invalid_request_error", "invalid_file_type")
            if not os.path.exists(f):
                return 400, _error(f"File '{f}' does not exist",
                                   "invalid_request_error",
                                   "file_not_found")
            if not os.path.isfile(f):
                return 400, _error(f"'{f}' is not a file",
                                   "invalid_request_error", "invalid_path")
            if self.pdf_roots is not None:
                rp = os.path.realpath(f)
                if not any(rp == r or rp.startswith(r + os.sep)
                           for r in self.pdf_roots):
                    return 400, _error(
                        f"'{f}' is outside the allowed pdf roots",
                        "invalid_request_error", "path_not_allowed")
        return self._embed_pdf_files(model, [str(f) for f in files])

    def _pdf_upload(self, content_type: str, body: bytes) -> tuple[int, dict]:
        """POST /v1/pdf_embeddings/upload — the multipart variant
        (server/src/lib.rs:412-658): a `model` text field + `files` PDF
        parts; parts are spooled to temp files so the response metadata
        carries a file_name, like the reference."""
        import tempfile
        try:
            parts = parse_multipart(content_type, body)
        except ValueError as e:
            return 400, _error(f"Invalid multipart payload: {e}",
                               "invalid_request_error", "invalid_multipart")
        model = None
        payloads: list[bytes] = []
        for name, filename, ctype, payload in parts:
            if name == "model":
                try:
                    v = payload.decode("utf-8").strip()
                except UnicodeDecodeError:
                    return 400, _error("Model field must be valid UTF-8",
                                       "invalid_request_error",
                                       "invalid_model_field")
                if v:
                    model = v
            elif name == "files":
                is_pdf = ((filename or "").lower().endswith(".pdf")
                          or ctype == "application/pdf")
                if not is_pdf:
                    return 400, _error("Uploaded file must be a PDF",
                                       "invalid_request_error",
                                       "invalid_file_type")
                payloads.append(payload)
            # unknown fields: drained and ignored, like the reference
        if model is None:
            return 400, _error("Missing model field in multipart payload",
                               "invalid_request_error", "missing_model")
        if not payloads:
            return 400, _error("No PDF files were uploaded",
                               "invalid_request_error", "empty_files")
        with tempfile.TemporaryDirectory(prefix="pdf_upload_") as td:
            paths = []
            for i, data in enumerate(payloads):
                p = os.path.join(td, f"upload_{i}.pdf")
                with open(p, "wb") as fh:
                    fh.write(data)
                paths.append(p)
            return self._embed_pdf_files(model, paths)

    def _embed_pdf_files(self, model: str, paths: list[str]) -> tuple[int, dict]:
        """Shared tail of both PDF routes: extract (engine/pdf.py) ->
        sentence chunks at 1000 chars (TextEmbedConfig::default()) ->
        ONE batched embed call -> per-chunk response items with the
        reference text_loader's metadata keys (file_name/created/
        modified, rust/src/text_loader.rs:38-52) + the chunk text.
        Extraction failure maps to the reference's 500
        embedding_generation_failed (a path-validated file with corrupt
        bytes fails inside embed_files_batch there too)."""
        from datetime import datetime

        from engine.chunk import split_sentence
        from engine.pdf import extract_pdf_text
        chunks: list[str] = []
        metas: list[dict] = []
        for p in paths:
            try:
                with open(p, "rb") as fh:
                    text = extract_pdf_text(fh.read())
            except (OSError, ValueError) as e:
                return 500, _error(f"Failed to generate embeddings: {e}",
                                   "server_error",
                                   "embedding_generation_failed")
            st = os.stat(p)
            md = {
                "file_name": os.path.realpath(p),
                "created": datetime.fromtimestamp(st.st_ctime).isoformat(),
                "modified": datetime.fromtimestamp(st.st_mtime).isoformat(),
            }
            for c in split_sentence(text, 1000):
                chunks.append(c)
                metas.append(md)
        vecs = self.embedder.embed_texts(chunks) if chunks else []
        return 200, {
            "object": "list",
            "data": [{"object": "embedding", "index": i,
                      "embedding": [float(v) for v in vecs[i]],
                      "metadata": metas[i], "text": chunks[i]}
                     for i in range(len(chunks))],
            "model": model,
        }

    def _image_embeddings(self, req: dict) -> tuple[int, dict]:
        """POST /v1/image_embeddings {model, images:[base64|data-url]}
        (server/src/lib.rs:712-838): decode + sniff every payload
        up-front (first bad index -> 400 base64_decode_failed), then one
        batched pass through the vision feature slot
        (engine/multimodal.ImageFeatureActor — model load once per
        server, work per batch, the same split the actor-pool stage
        uses)."""
        import pyarrow as pa
        images = req.get("images") or []
        model = req.get("model", f"image-feature-{self._image_model.FEAT_DIM}")
        if not images:
            return 400, _error("Images cannot be empty",
                               "invalid_request_error", "empty_images")
        raws: list[bytes] = []
        exts: list[str] = []
        for i, s in enumerate(images):
            try:
                if not isinstance(s, str):
                    raise ValueError("image must be a base64 string")
                raw, ext = decode_base64_image(s)
            except ValueError as e:
                return 400, _error(
                    f"Failed to decode image at index {i}: {e}",
                    "invalid_request_error", "base64_decode_failed")
            raws.append(raw)
            exts.append(ext)
        batch = pa.table({
            "asset_id": pa.array(range(len(raws)), pa.int64()),
            "payload": pa.array(raws, pa.binary()),
        })
        out = self._image_model(batch)
        feats = out.column("feature").to_pylist()
        return 200, {
            "object": "list",
            "data": [{"object": "embedding", "index": i,
                      "embedding": [float(v) for v in feats[i]],
                      "metadata": {"format": exts[i],
                                   "n_bytes": str(len(raws[i]))}}
                     for i in range(len(raws))],
            "model": model,
        }

    def _suggest(self, req: dict) -> tuple[int, dict]:
        """Prefix autocomplete: {"prefix": ..., "k": 10} ->
        {"suggestions": [{"term", "df"}]} (engine/query.py suggest)."""
        backend = self._backend()
        if backend is None:
            return 400, _error("no index mounted", "invalid_request_error",
                               "no_index")
        prefix = str(req.get("prefix", ""))
        try:
            k = int(req.get("k", 10))
        except (TypeError, ValueError):
            # same contract as /v1/search: non-numeric k is a client
            # error, not a handler-thread crash
            return 400, _error("k must be an integer",
                               "invalid_request_error", "invalid_request")
        if not hasattr(backend, "suggest"):
            return 400, _error(
                "suggest not supported by this serving tier",
                "invalid_request_error", "unsupported_suggest")
        rows = backend.suggest(prefix, k=k)
        return 200, {"suggestions": [
            {"term": t, "df": int(df)} for t, df in rows]}

    # -- lifecycle --------------------------------------------------------
    def start(self) -> int:
        self._thread.start()
        return self.port

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
