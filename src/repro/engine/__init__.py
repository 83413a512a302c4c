"""Compiled validation engine: schema compiler, cache, streaming, batch.

The pipeline is ``compile -> cache -> stream``:

* :func:`compile_xsd` lowers a formal XSD to immutable per-type DFA
  tables, or seen-mask bags for unordered content (:class:`CompiledSchema`);
* :class:`SchemaCache` / :func:`compile_cached` memoize compilation per
  schema fingerprint;
* :class:`StreamingValidator` / :func:`validate_streaming` validate text
  and bytes on a fused byte scan of the tables, and everything else
  (fallbacks, trees, event streams) with the one-pass tree walk of
  :class:`ValidatedDocument`, which also serves edits;
* :func:`validate_many` fans a batch of documents across a worker pool,
  with per-document fault isolation, deadlines, and retry
  (:mod:`repro.resilience`).
"""

from repro.engine.batch import validate_many
from repro.engine.cache import (
    SchemaCache,
    compile_cached,
    default_cache,
    schema_fingerprint,
)
from repro.engine.incremental import ValidatedDocument
from repro.engine.compiler import (
    CompiledSchema,
    CompiledType,
    ContentBag,
    ContentDFA,
    compile_bonxai,
    compile_regex,
    compile_xsd,
)
from repro.engine.streaming import (
    StreamingValidator,
    as_events,
    validate_streaming,
)

__all__ = [
    "CompiledSchema",
    "CompiledType",
    "ContentBag",
    "ContentDFA",
    "SchemaCache",
    "StreamingValidator",
    "ValidatedDocument",
    "as_events",
    "compile_bonxai",
    "compile_cached",
    "compile_regex",
    "compile_xsd",
    "default_cache",
    "schema_fingerprint",
    "validate_many",
    "validate_streaming",
]
