// Persistent provenance index: the downstream-adoption layer around the
// labeling scheme.
//
// ProvenanceIndex is a thin, immutable wrapper over a frozen
// fvl::LabelStore (core/label_store.h) — one contiguous bit arena plus
// grouped offsets, one group per run. A ProvenanceIndexBuilder consumes a
// labeled run and packs every encoded data label into a single-group
// store; the resulting ProvenanceIndex is a position-independent blob that
// can be serialized, mapped back, merged with other runs, and queried
// without the Run or the labeler:
//
//   ProvenanceIndexBuilder builder(service.production_graph());
//   ... builder.Add(label) for every item (or FromLabeledRun) ...
//   ProvenanceIndex index = std::move(builder).Build();
//   std::string blob = index.Serialize();
//   ProvenanceIndex restored = ProvenanceIndex::Deserialize(blob).value();
//   Decoder pi(&view_label);
//   pi.Depends(restored.Label(d1), restored.Label(d2));
//
// The blob is self-describing: the codec's field widths travel in the
// header, so deserialization needs no grammar or external LabelCodec.
//
// Labels decode on demand (queries pay one decode per side, a few hundred
// ns); Label(i) results may be cached by callers that query hot items.

#ifndef FVL_CORE_INDEX_H_
#define FVL_CORE_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <memory>

#include "fvl/core/label_store.h"
#include "fvl/core/run_labeler.h"
#include "fvl/core/serving_cache.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/check.h"
#include "fvl/util/status.h"

namespace fvl {

class ProvenanceIndex;

class ProvenanceIndexBuilder {
 public:
  explicit ProvenanceIndexBuilder(const ProductionGraph& pg);

  // Items must be added in id order (0, 1, 2, ...).
  void Add(const DataLabel& label) { store_.Append(label); }

  ProvenanceIndex Build() &&;

  // Freezes an already-labeled run: the labeler's live store is copied
  // verbatim (no label is re-encoded).
  static ProvenanceIndex FromLabeledRun(const ProductionGraph& pg,
                                        const RunLabeler& labeler);

 private:
  LabelStore store_;
};

// The one frozen index type: an immutable wrapper over a frozen LabelStore
// with 0..N groups, one group per run. A snapshot is a one-run index; Merge
// and CompactStream produce many-run ones from the same labels (a grouped
// append — no label is re-encoded). Items are addressed either by flat id
// (arena order across all runs) or as (run, item) pairs; for a one-run
// index the two coincide.
class ProvenanceIndex {
 public:
  ProvenanceIndex() = default;  // zero runs, zero items
  // Wraps a frozen store (a builder's output, a session's live store copied
  // at snapshot time, a grouped append, or a deserialized blob).
  explicit ProvenanceIndex(LabelStore store)
      : store_(std::move(store)),
        cache_(internal::MakeServingCache(store_.total_items())) {}

  int num_runs() const { return store_.num_groups(); }
  // Items across all runs; bounded to int range by every producer.
  int num_items() const { return store_.total_items(); }
  int num_items(int run) const { return store_.num_items(run); }
  // The codec the labels are encoded with (shared by every run; all-zero
  // widths for a zero-run index); consumers can compare it against their
  // grammar's codec before decoding (ProvenanceService does).
  const LabelCodec& codec() const { return store_.codec(); }
  // The underlying frozen store (zero-copy span access for batch decode).
  const LabelStore& store() const { return store_; }
  // Total index size in bits: arena + offset metadata at minimal width,
  // plus the per-run base table when the index is not a single run.
  int64_t SizeBits() const;

  // Flat id of (run, item) in arena order.
  int GlobalId(int run, int item) const { return store_.GlobalId(run, item); }
  // Inverse direction: the run a flat id belongs to. Queries use this to
  // keep run boundaries meaningful — items of different runs never depend
  // on each other (separate executions share no data flow), and the
  // decoding predicate is only defined over labels of one parse tree.
  int RunOf(int item) const { return store_.GroupOf(item); }

  // Decodes the label of one item, addressed either way.
  DataLabel Label(int item) const { return store_.DecodeLabel(item); }
  DataLabel Label(int run, int item) const {
    return Label(GlobalId(run, item));
  }
  // Exact encoded size of one item's label, addressed either way.
  int64_t LabelBits(int item) const { return store_.LabelBits(item); }
  int64_t LabelBits(int run, int item) const {
    return LabelBits(GlobalId(run, item));
  }

  // The snapshot-lifetime serving cache (core/serving_cache.h): decoded
  // labels + reachability memo keyed by flat ids, shared by copies of this
  // index and freed with the last one — invalidation is the destructor.
  // Null only for an empty (zero-item) index. The store is frozen, so
  // entries never go stale; ProvenanceService consults it on its batch
  // paths.
  ServingCache* serving_cache() const { return cache_.get(); }

  // Stable little-endian binary format, self-describing (codec widths in
  // the header): Deserialize needs only the blob. One rule picks the
  // layout — exactly one run is written as FVLIDX3, any other run count as
  // FVLMRG2 (which adds a run count and a per-run item-count table) — so a
  // one-run Merge serializes byte-identical to that run's snapshot.
  std::string Serialize() const;
  // Parses any of the four formats (FVLIDX3/FVLIDX2 single-run, FVLMRG2/
  // FVLMRG1 multi-run). Fails with kMalformedBlob on any parse error, an
  // unrecognized magic included, and on blobs whose label spans do not
  // decode exactly under the embedded codec — a returned index never
  // aborts in its accessors. The blob is only read during the call (the
  // index owns its storage), so borrowed buffers can be streamed through
  // without copying (CompactStream relies on this).
  [[nodiscard]] static Result<ProvenanceIndex> Deserialize(std::string_view blob);

  // Serves the index straight out of an archive file of any format: opens
  // and mmaps `path`, validates it exactly as Deserialize would, and
  // returns an index whose long-label arena still lives in the mapping —
  // zero arena copy (store().arena_borrowed() is true for any index with
  // long labels). The index keeps the mapping alive (copies share it; the
  // file unmaps with the last copy), so the returned value is
  // self-contained. kIo/kMapFailed for file-level failures, kMalformedBlob
  // for content ones.
  [[nodiscard]] static Result<ProvenanceIndex> Map(const std::string& path);

  // Reassembles incremental snapshots (ProvenanceSession::SnapshotDelta)
  // into the index one full Snapshot() would have produced at the same
  // point — bit-identical, serialization included (golden test in
  // tests/merge_test.cc). Deltas must be passed in freeze order and share
  // one codec; a codec mismatch, an empty span (no codec to infer), an
  // item-count overflow, or an internally inconsistent delta store is
  // kInvalidArgument.
  [[nodiscard]] static Result<ProvenanceIndex> FromDeltas(
      std::span<const ProvenanceIndex> deltas);

  // Combines indexes of the *same* specification into one queryable
  // multi-run artifact: every run of every input becomes a run of the
  // result, in order (a fold through CompactStream). Inputs whose codecs
  // disagree (i.e. snapshots of structurally different grammars) are
  // rejected with kInvalidArgument; an empty span yields a zero-run index
  // rather than an error.
  [[nodiscard]] static Result<ProvenanceIndex> Merge(
      std::span<const ProvenanceIndex> runs);

 private:
  friend class CompactStream;  // parses inputs with borrowed arenas

  // Deserialize/Map core; `borrow_arena` is ParseTail's flag (the returned
  // index then references `blob`, whose lifetime the caller manages —
  // Map attaches the mapping as backing_, CompactStream drops the store
  // before its reader).
  [[nodiscard]] static Result<ProvenanceIndex> Parse(std::string_view blob,
                                                     bool borrow_arena);

  LabelStore store_;
  // Shared (not deep-copied) by index copies: every copy wraps the same
  // frozen contents, so they legitimately pool one cache.
  std::shared_ptr<ServingCache> cache_;
  // Keepalive for Map-served indexes: the mapping the borrowed arena points
  // into. Empty (no backing) for heap-built indexes.
  BlobSource backing_;
};

// The former multi-run index type, now the same class.
using MergedProvenanceIndex = ProvenanceIndex;

// Memory-bounded k-way merge and LSM-style re-merge — the one appender
// behind Merge, ProvenanceService::MergeRunsStreamed and CompactFiles.
// Every input, in memory or serialized, single-run or multi-run, has its
// runs appended in stored order with one bulk bit copy per input; nothing
// is flattened back into per-run blobs or re-encoded. Serialized inputs
// are parsed one at a time and the parsed store is destroyed before Append
// returns, so folding N inputs peaks at O(largest input + output) memory
// instead of O(sum of inputs) (asserted against internal::StoreCountProbe
// in tests/merge_test.cc and tests/disk_tier_test.cc); the BlobReader
// overload parses with a borrowed arena, so a mapped input's payload bits
// are never copied into the temporary at all. The output is bit-identical
// to a Merge of the flattened run sequence (AppendTail is canonical
// whatever the grouping history).
//
//   CompactStream stream;
//   for (BlobReader& reader : readers) {
//     if (Status status = stream.Append(&reader); !status.ok()) return status;
//   }
//   ProvenanceIndex compacted = std::move(stream).Finish().value();
class CompactStream {
 public:
  CompactStream() = default;

  // Appends every run of `index` in its stored order. kInvalidArgument on a
  // codec mismatch with earlier inputs (a snapshot of a structurally
  // different grammar) or item-count overflow. A zero-run input adds
  // nothing and pins no codec. On error the stream is unchanged and may
  // keep appending other inputs.
  [[nodiscard]] Status Append(const ProvenanceIndex& index);

  // Same, for one serialized index of any format; additionally
  // kMalformedBlob if the blob does not parse.
  [[nodiscard]] Status Append(std::string_view blob);

  // Same, consuming the reader's remaining bytes. For a mapped source the
  // input's label arena is read in place (borrowed-arena parse) and its
  // pages are released once appended — the streaming path CompactMerged
  // and the service-level compaction use.
  [[nodiscard]] Status Append(BlobReader* reader);

  // Runs / items appended so far, across all inputs.
  int num_runs() const { return store_.num_groups(); }
  int num_items() const { return store_.total_items(); }
  // The shared codec every appended run is pinned to (the first run's);
  // all-zero widths until a run is appended. Lets callers vet a batch
  // against their own grammar after its first run instead of after the
  // full merge (ProvenanceService fails fast on it).
  const LabelCodec& codec() const { return store_.codec(); }

  // Freezes the appended runs (a stream without runs yields a zero-run
  // index, exactly like Merge over an empty span); the stream is consumed.
  [[nodiscard]] Result<ProvenanceIndex> Finish() &&;

 private:
  // Parses one serialized input (borrowing its arena from `blob` when
  // asked — the parsed store never outlives this call) and appends it.
  [[nodiscard]] Status AppendParsed(std::string_view blob, bool borrow_arena);

  bool have_codec_ = false;
  size_t inputs_ = 0;  // inputs appended (for error attribution)
  LabelStore store_;
};

// Convenience one-shot: compacts `inputs` in order through a CompactStream.
[[nodiscard]] Result<ProvenanceIndex> CompactMerged(
    std::span<BlobReader> inputs);

}  // namespace fvl

#endif  // FVL_CORE_INDEX_H_
