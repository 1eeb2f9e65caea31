"""Canonical binary wire codec for protocol payloads.

Every MAC, signature, and digest in the stack bottoms out in a canonical byte
representation of a message payload.  The original implementation re-ran
``json.dumps(..., sort_keys=True, default=str)`` on every call, which has two
problems:

* **cost** -- JSON canonicalization dominated the CPU profile the paper
  attributes to cryptography (the payload is re-serialised on every send,
  every reception, and every retransmission of the same message);
* **ambiguity** -- ``default=str`` silently stringifies bytes and nested
  objects, so two *distinct* payloads (``b"\\x01"`` vs ``"b'\\\\x01'"``, int
  keys vs their string form) could serialize -- and therefore digest -- to the
  same bytes.

This module replaces it with a compact, deterministic, *injective* binary
encoding: every value is emitted as a one-byte type tag followed by a
length-prefixed body, so distinct values of distinct types can never collide.
Container contents are self-delimiting, dictionaries and sets are ordered by
their encoded key bytes (total and type-safe, unlike comparing mixed-type
keys), and registered dataclasses round-trip losslessly through
:func:`decode_canonical`.

A dataclass travels as an *object frame*::

    O | u32 name length | class name | u32 body length | body
    body = (u32 field-name length | field name | field value) per field,
           in declaration order

The body length lets a decoder find where a nested value ends without
parsing it, which is what makes the two per-process caches below possible:

* **memoised nested encodes** -- the bytes of a frozen dataclass are recorded
  on the object (``_wire_memo``) the first time it is encoded or decoded, so
  a PrePrepare or Forward built from requests the process already holds
  splices their bytes verbatim, and relaying a received message re-sends the
  slice it arrived in;
* **interned nested values** -- the immutable values nested inside other
  messages (:data:`INTERNED_WIRE_TYPES`) are looked up by their exact frame
  bytes in one bounded table (:data:`INTERN`), so the same batch arriving in
  a PrePrepare and again in every relayed Forward is built once, and its
  payload/digest memos warm once.

The module also hosts the process-wide codec statistics (payload/digest memo
and intern-table counters surfaced through ``RunResult`` and the CLI) and the
*legacy mode* switch used by ``benchmarks/bench_hotpath.py`` to reproduce the
pre-codec cost profile for an honest before/after comparison.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import MalformedMessageError

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

# One-byte type tags.  Distinct tags per type are what make the encoding
# injective: bytes can never collide with the str of those bytes, nor an int
# key with its decimal string.
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"I"
_FLOAT = b"D"
_STR = b"S"
_BYTES = b"B"
_LIST = b"L"
_TUPLE = b"U"
_DICT = b"M"
_FROZENSET = b"Z"
_OBJECT = b"O"
_ENUM = b"E"


# ---------------------------------------------------------------------------
# wire-type registry (for lossless decode of dataclasses and enums)
# ---------------------------------------------------------------------------

_WIRE_TYPES: dict[str, type] = {}


def register_wire_type(cls: type) -> type:
    """Register a dataclass or enum so :func:`decode_canonical` can rebuild it.

    Usable as a decorator.  Registration is keyed by class name; the protocol
    message set has globally unique names, which the registry enforces.
    """
    name = cls.__name__
    existing = _WIRE_TYPES.get(name)
    if existing is not None and existing is not cls:
        raise MalformedMessageError(f"wire type name {name!r} registered twice")
    _WIRE_TYPES[name] = cls
    return cls


def registered_wire_types() -> dict[str, type]:
    """Snapshot of the registry (used by the round-trip property tests)."""
    return dict(_WIRE_TYPES)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


# Length prefixes are 4-byte big-endian; the first 256 are interned since
# almost every string/collection on the hot path is short.
_LEN = [_U32.pack(i) for i in range(256)]
_pack_u32 = _U32.pack


def _pack_len(n: int) -> bytes:
    return _LEN[n] if n < 256 else _pack_u32(n)


def _encode_str(value: str, out: list[bytes]) -> None:
    body = value.encode()
    out.append(_STR)
    out.append(_pack_len(len(body)))
    out.append(body)


def _encode_int(value: int, out: list[bytes]) -> None:
    body = str(value).encode()
    out.append(_INT)
    out.append(_pack_len(len(body)))
    out.append(body)


def _encode_bytes(value: bytes, out: list[bytes]) -> None:
    out.append(_BYTES)
    out.append(_pack_len(len(value)))
    out.append(value)


def _encode_float(value: float, out: list[bytes]) -> None:
    if value != value:
        # NaN compares unequal to itself, so NaN payloads would break both
        # the "equal values -> identical bytes" contract and dict-key sorting
        # (sorting a dict with NaN keys is input-order dependent).
        raise MalformedMessageError("cannot canonically encode NaN")
    if value == 0.0:
        value = 0.0  # collapse -0.0: equal values must share one encoding
    out.append(_FLOAT)
    out.append(_F64.pack(value))


def _encode_bool(value: bool, out: list[bytes]) -> None:
    out.append(_TRUE if value else _FALSE)


def _sorted_items(value: dict[Any, Any]) -> list[tuple[Any, Any]]:
    """Dict entries in canonical encoding order (shared by encode and the
    decoder's canonical-form validation)."""
    try:
        # Fast path: homogeneous (string or int) keys sort natively.  Keys
        # are unique, so the tuple comparison never reaches the values.
        return sorted(value.items())
    except TypeError:
        # Mixed key types: order by encoded key bytes (total and type-safe).
        return [kv for _, kv in sorted((encode_canonical(k), (k, v)) for k, v in value.items())]


def _encode_dict(value: dict[Any, Any], out: list[bytes]) -> None:
    out.append(_DICT)
    out.append(_pack_len(len(value)))
    for key, val in _sorted_items(value):
        _encode_into(key, out)
        _encode_into(val, out)


def _encode_list(value: list[Any], out: list[bytes]) -> None:
    out.append(_LIST)
    out.append(_pack_len(len(value)))
    for item in value:
        _encode_into(item, out)


def _encode_tuple(value: tuple[Any, ...], out: list[bytes]) -> None:
    out.append(_TUPLE)
    out.append(_pack_len(len(value)))
    for item in value:
        _encode_into(item, out)


def _encode_frozenset(value: frozenset[Any], out: list[bytes]) -> None:
    encoded = sorted(encode_canonical(item) for item in value)
    out.append(_FROZENSET)
    out.append(_pack_len(len(encoded)))
    out.extend(encoded)


_ENCODERS: dict[type, Callable[[Any, list[bytes]], None]] = {
    str: _encode_str,
    int: _encode_int,
    bytes: _encode_bytes,
    float: _encode_float,
    bool: _encode_bool,
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_tuple,
    frozenset: _encode_frozenset,
    set: _encode_frozenset,
}

#: Registered types whose decoded instances are shared through :data:`INTERN`
#: when they arrive nested inside another object frame.  Each is immutable,
#: and every memo it carries is a pure function of its bytes, so handing one
#: object to every holder is what the simulator already does.  Messages that
#: travel on their own (a deliver envelope's payload) are never interned:
#: the envelope attaches per-delivery MAC tags to them.
INTERNED_WIRE_TYPES = frozenset(
    {"Transaction", "ClientRequest", "CommitCertificate", "Signature", "ReplicaId"}
)


class _ObjectPlan(NamedTuple):
    """How one dataclass is framed: the constant bytes and the cache policy."""

    header: bytes  # tag + class name; the body length follows
    field_headers: tuple[bytes, ...]  # u32 length + name, per field
    names: tuple[str, ...]
    memoize: bool  # frozen with a __dict__: bytes recorded in ``_wire_memo``
    interned: bool  # nested instances go through INTERN


_DATACLASS_PLANS: dict[type, _ObjectPlan] = {}


def _dataclass_plan(cls: type) -> _ObjectPlan:
    plan = _DATACLASS_PLANS.get(cls)
    if plan is None:
        name = cls.__name__.encode()
        names = tuple(f.name for f in fields(cls))
        frozen: bool = getattr(cls, "__dataclass_params__").frozen
        memoize = frozen and "__slots__" not in vars(cls)
        plan = _ObjectPlan(
            header=_OBJECT + _pack_len(len(name)) + name,
            field_headers=tuple(_pack_len(len(n.encode())) + n.encode() for n in names),
            names=names,
            memoize=memoize,
            interned=memoize and cls.__name__ in INTERNED_WIRE_TYPES,
        )
        _DATACLASS_PLANS[cls] = plan
    return plan


def _encode_object(value: Any, plan: _ObjectPlan) -> bytes:
    """One object frame, produced at most once per frozen object."""
    if plan.memoize:
        cached = value.__dict__.get("_wire_memo")
        if cached is not None:
            return cached
    parts = [plan.header, b""]
    for field_header, fname in zip(plan.field_headers, plan.names):
        parts.append(field_header)
        _encode_into(getattr(value, fname), parts)
    parts[1] = _pack_len(sum(map(len, parts)) - len(plan.header))
    encoded = b"".join(parts)
    if plan.memoize:
        object.__setattr__(value, "_wire_memo", encoded)
    return encoded


def _encode_into(value: Any, out: list[bytes]) -> None:
    kind = type(value)
    encoder = _ENCODERS.get(kind)
    if encoder is not None:
        encoder(value, out)
        return
    plan = _DATACLASS_PLANS.get(kind)
    if plan is not None:
        out.append(_encode_object(value, plan))
        return
    if value is None:
        out.append(_NONE)
        return
    if isinstance(value, enum.Enum):
        name = type(value).__name__.encode()
        out.append(_ENUM)
        out.append(_pack_len(len(name)))
        out.append(name)
        _encode_into(value.value, out)
        return
    if is_dataclass(value):
        out.append(_encode_object(value, _dataclass_plan(kind)))
        return
    if isinstance(value, int):  # int subclasses outside the Enum machinery
        _encode_int(int(value), out)
        return
    if isinstance(value, str):
        _encode_str(str(value), out)
        return
    raise MalformedMessageError(
        f"cannot canonically encode {type(value).__name__}: {value!r}"
    )


def encode_canonical(value: Any) -> bytes:
    """Deterministic, injective byte encoding of ``value``.

    Two calls with equal values *of the same types* always return identical
    bytes; values of distinct types always return distinct bytes -- even when
    Python ``==`` equates them (``True`` vs ``1``, ``1`` vs ``1.0``), because
    type-blind collapsing is exactly what broke injectivity in the old JSON
    path.  Payload builders must therefore be type-stable: derive a field
    from one code path, not sometimes-int/sometimes-bool.
    """
    out: list[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def compile_fixed_dict(
    static: dict[str, Any],
    dynamic_keys: tuple[str, ...],
    raw_keys: tuple[str, ...] = (),
) -> Callable[..., bytes]:
    """Compile a fixed-layout encoder for dicts with a known key set.

    The hot vote payloads (Prepare/Commit/Checkpoint) are tiny dicts whose
    keys -- and some values -- never change; paying the generic codec walker
    (dict construction, key sorting, per-value dispatch) for every fresh vote
    is ~20% of the optimized macro profile.  This precompiles everything
    static into constant byte segments at import time and leaves only the
    dynamic values to encode per call.

    Returns ``encode(*values)`` taking the dynamic values *in the order of
    ``dynamic_keys``* and producing bytes **identical** to
    ``encode_canonical({**static, **dict(zip(dynamic_keys, values))})`` --
    the fast path never changes the wire format, so digests, MACs, and
    signatures interoperate with generically-encoded peers (enforced by the
    vote-codec equivalence tests).  Dynamic values of type ``str``/``int``/
    ``bytes`` take the inlined fast path; anything else falls back to the
    generic (still injective) walker.

    Keys listed in ``raw_keys`` are *splice slots*: the value supplied for
    such a key must already be canonical codec bytes (e.g. a nested
    envelope's memoised ``payload_bytes()`` or a :func:`list_frame`) and is
    inserted verbatim.  This is what lets the rich envelopes
    (ClientRequest/Transaction) reuse the encoding work of their
    parts instead of re-walking nested structures; the caller is responsible
    for splicing only well-formed canonical frames.
    """
    if set(static) & set(dynamic_keys):
        raise MalformedMessageError("static and dynamic keys overlap")
    if not set(raw_keys) <= set(dynamic_keys):
        raise MalformedMessageError("raw_keys must be a subset of dynamic_keys")
    ordered = sorted({**static, **{k: None for k in dynamic_keys}})
    consts: list[bytes] = []
    slots: list[tuple[int, bool]] = []
    pending = bytearray(_DICT + _pack_len(len(ordered)))
    for key in ordered:
        pending += encode_canonical(key)
        if key in static:
            pending += encode_canonical(static[key])
        else:
            consts.append(bytes(pending))
            pending = bytearray()
            slots.append((dynamic_keys.index(key), key in raw_keys))
    consts.append(bytes(pending))
    slot_triples = tuple(
        (const, slot, raw) for const, (slot, raw) in zip(consts[:-1], slots)
    )
    tail = consts[-1]

    def encode(*values: Any) -> bytes:
        out: list[bytes] = []
        for const, slot, raw in slot_triples:
            out.append(const)
            value = values[slot]
            if raw:
                out.append(value)
                continue
            kind = type(value)
            if kind is bytes:
                out.append(_BYTES)
                out.append(_pack_len(len(value)))
                out.append(value)
            elif kind is int:  # bool is a distinct type and falls through
                body = str(value).encode()
                out.append(_INT)
                out.append(_pack_len(len(body)))
                out.append(body)
            elif kind is str:
                body = value.encode()
                out.append(_STR)
                out.append(_pack_len(len(body)))
                out.append(body)
            else:
                out.append(encode_canonical(value))
        out.append(tail)
        return b"".join(out)

    return encode


def tuple_frame(encoded_items: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Assemble the canonical encoding of a tuple from pre-encoded items.

    The codec is compositional: the bytes a value contributes inside a
    container are exactly its own :func:`encode_canonical` output.  This
    helper exploits that for fan-out fast paths -- a socket multicast encodes
    the expensive shared suffix (tags + message) once and prepends only the
    per-destination item, yielding bytes identical to
    ``encode_canonical(tuple(items))``.
    """
    return _TUPLE + _pack_len(len(encoded_items)) + b"".join(encoded_items)


def list_frame(encoded_items: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Assemble the canonical encoding of a list from pre-encoded items.

    List analogue of :func:`tuple_frame`, used by the packed Transaction
    layout to splice per-operation frames into the ``operations`` list
    without re-walking each operation dict.
    """
    return _LIST + _pack_len(len(encoded_items)) + b"".join(encoded_items)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _read_len(data: bytes, pos: int) -> tuple[int, int]:
    end = pos + 4
    if end > len(data):
        raise MalformedMessageError("truncated length prefix")
    return _U32.unpack_from(data, pos)[0], end


def _decode_from(
    data: bytes, pos: int, pending: dict[bytes, Any], nested: bool
) -> tuple[Any, int]:
    """Decode the value starting at ``pos``; return it and the position after it.

    ``nested`` is true inside an object frame, where values of the
    :data:`INTERNED_WIRE_TYPES` are shared through :data:`INTERN`.  Values
    first built by this decode are collected in ``pending`` and only enter
    the table once the whole input has decoded cleanly.
    """
    if pos >= len(data):
        raise MalformedMessageError("truncated canonical encoding")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _INT:
        length, pos = _read_len(data, pos)
        if pos + length > len(data):
            raise MalformedMessageError("truncated int body")
        body = data[pos : pos + length]
        value = int(body)
        # Reject non-canonical spellings ("+5", " 5", "5_0"): decode must be
        # the exact inverse of encode, or two distinct frames could decode to
        # equal values and defeat digest-by-reencode checks.
        if str(value).encode() != body:
            raise MalformedMessageError(f"non-canonical int body {body!r}")
        return value, pos + length
    if tag == _STR:
        length, pos = _read_len(data, pos)
        if pos + length > len(data):
            raise MalformedMessageError("truncated str body")
        return data[pos : pos + length].decode(), pos + length
    if tag == _BYTES:
        length, pos = _read_len(data, pos)
        if pos + length > len(data):
            raise MalformedMessageError("truncated bytes body")
        return data[pos : pos + length], pos + length
    if tag == _FLOAT:
        value = _F64.unpack_from(data, pos)[0]
        # Mirror the encoder's canonicality rules: encode never emits NaN or
        # the -0.0 bit pattern, so decode must reject them -- otherwise two
        # distinct frames could decode to equal values and defeat
        # digest-by-reencode checks.
        if value != value:
            raise MalformedMessageError("non-canonical float body: NaN")
        if value == 0.0 and data[pos : pos + 8] != _F64.pack(0.0):
            raise MalformedMessageError("non-canonical float body: -0.0")
        return value, pos + 8
    if tag == _DICT:
        count, pos = _read_len(data, pos)
        items = []
        for _ in range(count):
            key, pos = _decode_from(data, pos, pending, nested)
            val, pos = _decode_from(data, pos, pending, nested)
            items.append((key, val))
        result = dict(items)
        if len(result) != count:
            raise MalformedMessageError("duplicate dict keys in canonical encoding")
        if count > 1 and [k for k, _ in items] != [k for k, _ in _sorted_items(result)]:
            raise MalformedMessageError("non-canonical dict entry order")
        return result, pos
    if tag == _LIST:
        count, pos = _read_len(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos, pending, nested)
            items.append(item)
        return items, pos
    if tag == _TUPLE:
        count, pos = _read_len(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos, pending, nested)
            items.append(item)
        return tuple(items), pos
    if tag == _FROZENSET:
        count, pos = _read_len(data, pos)
        items = []
        previous = None
        for _ in range(count):
            start = pos
            item, pos = _decode_from(data, pos, pending, nested)
            encoded = data[start:pos]
            # Encode sorts elements by their encoded bytes (and a set cannot
            # hold duplicates), so anything but a strictly increasing element
            # sequence is a non-canonical frame.
            if previous is not None and encoded <= previous:
                raise MalformedMessageError("non-canonical frozenset element order")
            previous = encoded
            items.append(item)
        return frozenset(items), pos
    if tag == _ENUM:
        length, pos = _read_len(data, pos)
        name = data[pos : pos + length].decode()
        pos += length
        value, pos = _decode_from(data, pos, pending, nested)
        cls = _WIRE_TYPES.get(name)
        if cls is None:
            raise MalformedMessageError(f"unknown enum wire type {name!r}")
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise MalformedMessageError(f"wire type {name!r} is not an enum")
        return cls(value), pos
    if tag == _OBJECT:
        return _decode_object(data, pos - 1, pending, nested)
    raise MalformedMessageError(f"unknown canonical type tag {tag!r}")


def _decode_object(
    data: bytes, start: int, pending: dict[bytes, Any], nested: bool
) -> tuple[Any, int]:
    """Decode the object frame at ``start`` (its tag byte)."""
    length, pos = _read_len(data, start + 1)
    name = data[pos : pos + length].decode()
    pos += length
    cls = _WIRE_TYPES.get(name)
    if cls is None:
        raise MalformedMessageError(f"unknown object wire type {name!r}")
    plan = _DATACLASS_PLANS.get(cls)
    if plan is None:
        if not is_dataclass(cls):
            raise MalformedMessageError(f"wire type {name!r} is not a dataclass")
        plan = _dataclass_plan(cls)
    size, pos = _read_len(data, pos)
    end = pos + size
    if end > len(data):
        raise MalformedMessageError(
            f"object body for {name!r} claims {size} bytes but {len(data) - pos} remain"
        )
    key = None
    if nested and plan.interned:
        key = data[start:end]
        shared = INTERN.get(key)
        if shared is None:
            shared = pending.get(key)
        if shared is not None:
            STATS.intern_hits += 1
            return shared, end
        STATS.intern_misses += 1
    # Enforce canonical form like the other containers: the encoder emits
    # exactly the dataclass's fields in declaration order, so a frame with
    # missing, duplicate, extra, or reordered fields must be rejected -- not
    # silently normalised into an equal object.  The field count is implied
    # by the class; the body length must be exactly what the fields span.
    kwargs: dict[str, Any] = {}
    for fname, field_header in zip(plan.names, plan.field_headers):
        if not data.startswith(field_header, pos, end):
            raise MalformedMessageError(
                f"object body for {name!r} does not continue with field {fname!r} "
                "(missing, reordered, duplicate, or cut short)"
            )
        kwargs[fname], pos = _decode_from(data, pos + len(field_header), pending, True)
    if pos != end:
        raise MalformedMessageError(
            f"object body for {name!r} claims {size} bytes but its fields span "
            f"{size + pos - end}"
        )
    value = cls(**kwargs)
    if plan.memoize:
        object.__setattr__(value, "_wire_memo", data[start:end] if key is None else key)
    if key is not None:
        pending[key] = value
    return value, end


def decode_canonical(data: bytes) -> Any:
    """Inverse of :func:`encode_canonical` for registered wire types.

    Every malformed input fails with :class:`MalformedMessageError` -- the
    low-level struct/unicode/constructor errors a truncated or corrupted
    frame can trigger are translated, so callers (eventually: a socket
    transport fed attacker-controlled bytes) have one error to catch.  A
    malformed input leaves :data:`INTERN` untouched.

    Every decoded frozen dataclass carries the slice it was decoded from as
    its ``_wire_memo``, so re-encoding (relaying) it costs nothing.  Values
    of the :data:`INTERNED_WIRE_TYPES` nested in an object frame may be
    objects shared with earlier decodes; a value outside any object frame --
    the top-level value, or a deliver envelope's message -- is always a fresh
    object.
    """
    if type(data) is not bytes:
        data = bytes(data)
    pending: dict[bytes, Any] = {}
    try:
        value, pos = _decode_from(data, 0, pending, False)
    except MalformedMessageError:
        raise
    except (struct.error, ValueError, TypeError, UnicodeDecodeError, IndexError) as exc:
        raise MalformedMessageError(f"malformed canonical encoding: {exc}") from exc
    if pos != len(data):
        raise MalformedMessageError(
            f"{len(data) - pos} trailing bytes after canonical value"
        )
    if pending:
        INTERN.add_all(pending)
    return value


# ---------------------------------------------------------------------------
# intern table (decoded nested values, shared per process)
# ---------------------------------------------------------------------------

#: Bounds of :data:`INTERN`.  A value is only worth sharing while copies of it
#: are still arriving -- a batch's PrePrepare and its relayed Forwards span
#: one ring rotation -- so the table keeps the most recent few thousand.
INTERN_MAX_ENTRIES = 4096
INTERN_MAX_BYTES = 4 * 1024 * 1024


class InternTable:
    """Decoded values keyed by their exact frame bytes, oldest first out.

    Bounded both by entry count and by the total size of the keys; a key
    larger than the whole byte budget is never stored.  Lookups do not
    reorder entries, so a failed decode cannot change the table at all.
    Every decode in this stack runs on one thread (the socket transport's
    event loop), so the table takes no lock.
    """

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[bytes, Any] = OrderedDict()
        #: Total length of the stored keys.
        self.nbytes = 0
        #: Lookup by exact frame bytes (the bound method: it runs per nested
        #: value decoded).
        self.get = self._entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def add_all(self, fresh: dict[bytes, Any]) -> None:
        """Store every new entry of ``fresh``, then evict down to the bounds."""
        entries = self._entries
        for key, value in fresh.items():
            if key in entries or len(key) > self.max_bytes:
                continue
            entries[key] = value
            self.nbytes += len(key)
        while len(entries) > self.max_entries or self.nbytes > self.max_bytes:
            old, _ = entries.popitem(last=False)
            self.nbytes -= len(old)
            STATS.intern_evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


INTERN = InternTable(INTERN_MAX_ENTRIES, INTERN_MAX_BYTES)


# ---------------------------------------------------------------------------
# codec statistics (memo-cache efficacy counters)
# ---------------------------------------------------------------------------


@dataclass
class CodecStats:
    """Process-wide counters for the payload/digest memos and the intern table.

    ``payload_misses`` counts actual encodings, ``payload_hits`` counts calls
    served from a frozen object's memo; likewise for digests.  ``intern_*``
    count lookups of nested values in :data:`INTERN` that returned a shared
    object (hits) or had to build one (misses), and the entries the table's
    bounds pushed out (evictions).  The counters are cumulative for the
    process -- callers interested in one run window snapshot before and
    delta after (see ``Deployment.collect_result``).
    """

    payload_hits: int = 0
    payload_misses: int = 0
    digest_hits: int = 0
    digest_misses: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    intern_evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, before: dict[str, int] | None) -> dict[str, dict[str, int]]:
        """Deltas since ``before``, one hit/miss mapping per cache (the shape
        of ``LruCache.stats()``)."""
        base = before or {}
        d = {name: value - base.get(name, 0) for name, value in self.snapshot().items()}
        return {
            "payload": {"hits": d["payload_hits"], "misses": d["payload_misses"]},
            "digest": {"hits": d["digest_hits"], "misses": d["digest_misses"]},
            "intern": {
                "hits": d["intern_hits"],
                "misses": d["intern_misses"],
                "evictions": d["intern_evictions"],
            },
        }

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


STATS = CodecStats()


# ---------------------------------------------------------------------------
# legacy mode (pre-codec cost profile, kept for the hot-path benchmark)
# ---------------------------------------------------------------------------


class _LegacyMode:
    """When enabled, payloads fall back to per-call JSON canonicalization.

    This reproduces the pre-codec behaviour -- ``json.dumps(...,
    sort_keys=True, default=str)`` with stringified dict keys, no memoization
    anywhere -- so ``bench_hotpath.py`` can measure the real before/after gap
    inside one process.  Never enable it outside benchmarks: the JSON form is
    *not* injective.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


LEGACY = _LegacyMode()


class legacy_json_encoding:
    """Context manager forcing the legacy JSON path (benchmarks only).

    Re-entrant: the previous mode is restored on exit, so a nested context
    can never silently switch an enclosing benchmark scope back to the
    optimized path (or vice versa).
    """

    def __init__(self) -> None:
        self._previous = False

    def __enter__(self) -> None:
        self._previous = LEGACY.enabled
        LEGACY.enabled = True

    def __exit__(self, *exc_info) -> None:
        LEGACY.enabled = self._previous


def _jsonify(value: Any) -> Any:
    """Mimic the old payload shape: stringified dict keys, stringified bytes."""
    if isinstance(value, dict):
        return {str(key): _jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    return value


def legacy_json_bytes(value: Any) -> bytes:
    """The pre-codec canonical form: per-call, JSON, ``default=str`` fallback."""
    return json.dumps(_jsonify(value), sort_keys=True, default=str).encode()


def encode_payload(build_fields: Callable[[], Any]) -> bytes:
    """Encode a payload honouring the legacy-mode switch (no memoization here)."""
    if LEGACY.enabled:
        return legacy_json_bytes(build_fields())
    return encode_canonical(build_fields())


# ---------------------------------------------------------------------------
# per-object memoisation (frozen dataclasses)
# ---------------------------------------------------------------------------
#
# Frozen dataclasses still own a plain ``__dict__``; the memo slots below are
# written through ``object.__setattr__`` and are invisible to the generated
# ``__eq__``/``__hash__`` and to ``dataclasses.fields`` (so the canonical
# encoding of an object never includes its own caches).


def memoized_payload(obj: Any, build_fields: Callable[[], Any]) -> bytes:
    """Canonical payload of ``obj``, encoded at most once per object."""
    if LEGACY.enabled:
        return legacy_json_bytes(build_fields())
    cached = obj.__dict__.get("_payload_memo")
    if cached is None:
        cached = encode_canonical(build_fields())
        object.__setattr__(obj, "_payload_memo", cached)
        STATS.payload_misses += 1
    else:
        STATS.payload_hits += 1
    return cached


def prime_payload(obj: Any, payload: bytes) -> None:
    """Seed an object's payload memo with canonical bytes computed elsewhere.

    Used when one object's payload is known to equal another's by
    construction (e.g. a re-built ``ClientRequest`` whose signature is
    excluded from its own payload), so the clone need not re-encode.
    """
    if LEGACY.enabled:
        return
    object.__setattr__(obj, "_payload_memo", payload)


def memoized_packed_payload(
    obj: Any, encoder: Callable[..., bytes], build_fields: Callable[[], Any], values: tuple[Any, ...]
) -> bytes:
    """Like :func:`memoized_payload`, but the first encode uses a compiled
    fixed-layout ``encoder`` (see :func:`compile_fixed_dict`) over ``values``
    instead of walking ``build_fields()``.  ``build_fields`` is still needed
    for the legacy-JSON benchmark mode, which has no fast path by design.
    """
    if LEGACY.enabled:
        return legacy_json_bytes(build_fields())
    cached = obj.__dict__.get("_payload_memo")
    if cached is None:
        cached = encoder(*values)
        object.__setattr__(obj, "_payload_memo", cached)
        STATS.payload_misses += 1
    else:
        STATS.payload_hits += 1
    return cached


def memoized_digest(obj: Any, build_fields: Callable[[], Any]) -> bytes:
    """SHA-256 of the canonical payload, hashed at most once per object."""
    if LEGACY.enabled:
        return hashlib.sha256(legacy_json_bytes(build_fields())).digest()
    cached = obj.__dict__.get("_digest_memo")
    if cached is None:
        cached = hashlib.sha256(memoized_payload(obj, build_fields)).digest()
        object.__setattr__(obj, "_digest_memo", cached)
        STATS.digest_misses += 1
    else:
        STATS.digest_hits += 1
    return cached
