"""Key-value separation: the value-log (vlog) subsystem.

Large values live in append-only, CRC-framed ``VLOG-%06d`` files; the LSM
stores the key plus a fixed-size :class:`~repro.vlog.format.ValuePointer`
that resolves transparently on reads.  See DESIGN.md §13.
"""

from .format import (
    POINTER_SIZE,
    TAG_INLINE,
    TAG_POINTER,
    ValuePointer,
    decode_pointer,
    decode_record,
    encode_pointer,
    encode_record,
    is_pointer,
    parse_vlog_file_name,
    salvage_scan,
    stored_size_bound,
    vlog_file_name,
    wrap_inline,
)
from .manager import CAT_VLOG, VlogManager

__all__ = [
    "CAT_VLOG",
    "POINTER_SIZE",
    "TAG_INLINE",
    "TAG_POINTER",
    "ValuePointer",
    "VlogManager",
    "decode_pointer",
    "decode_record",
    "encode_pointer",
    "encode_record",
    "is_pointer",
    "parse_vlog_file_name",
    "salvage_scan",
    "stored_size_bound",
    "vlog_file_name",
    "wrap_inline",
]
