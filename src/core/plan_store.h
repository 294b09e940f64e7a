// Disk-backed, versioned, checksummed store of compiled plans keyed by canonical
// PlanSignature — the cross-process half of the Engine's plan cache (paper §3.1: plans
// are serialized by the planner and shipped to devices; ParaDySe-style recurring batch
// shapes make the same signatures reappear across process restarts). A fresh Engine
// pointed at a populated store serves previously-planned signatures from disk instead of
// replanning, bit-identical to the original plans.
//
// On-disk layout: one record file per signature inside the store directory,
//
//   <store>/<32-hex-signature>.dcpplan
//
// written atomically (temp file in the same directory + rename), so a crashed or killed
// writer process never leaves a half-record under a live name. (The write is not
// fsynced: after a power loss the rename may surface torn page-cache data — that case
// is detected by the CRC trailer and replanned around, not prevented.) Record format
// (all integers little-endian, written and read through common/bytes.h):
//
//   offset 0   "DCPSTORE"             8-byte magic
//          8   u32 format version     (currently 4; older records are replanned)
//         12   u64 signature.lo
//         20   u64 signature.hi
//         28   plan payload           SerializePlanBinary bytes, up to the trailer
//   size - 4   u32 CRC32              over every byte before the trailer
//
// The plan payload is version 3 of the binary plan format (runtime/instructions.cc
// documents it): varint layout, chunk-home and stats sections, then per device a
// header (slot counts and six pool counts) and one frame-of-reference column per item
// field — {zigzag base, byte width in 0/1/2/4/8}, then one little-endian value − base
// per item. EncodeRecord encodes the payload in place, after the header. Versions 1-3
// wrapped the payload in a {u32 tag, u64 length} section; it had one tag and no other
// writer, so version 4 dropped it.
//
// Decoding validates, in order: minimum length, magic, version, the CRC32 trailer
// (catching bit flips and torn writes before any byte reaches the plan decoder), the
// signature, and finally the bounds-checked binary plan payload — and cross-checks the
// embedded signature against both the filename and the requested key. Every failure is a
// recoverable DATA_LOSS Status; a corrupt record is counted, skipped, and replanned
// around, never a process abort.
//
// Bundles (`dcpctl cache export|import`) are a portable concatenation of records:
// "DCPBUNDL", u32 version, u32 record count, then repeated { u64 length, record bytes }.
#ifndef DCP_CORE_PLAN_STORE_H_
#define DCP_CORE_PLAN_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/plan_signature.h"
#include "runtime/instructions.h"

namespace dcp {

struct PlanStoreStats {
  int64_t entries = 0;          // Records currently indexed in the directory.
  int64_t hits = 0;             // Successful Load()s.
  int64_t writes = 0;           // Successful Put()s.
  int64_t corrupt_skipped = 0;  // Records rejected by validation and skipped.
};

class PlanStore {
 public:
  // Opens (creating if needed) the store directory and warm-loads the signature index
  // from the record filenames — records themselves stream in lazily on Load. Fails only
  // on filesystem errors; unparseable filenames are ignored. When `registry` is
  // non-null (the Engine passes its child registry) the store's counters and
  // record-IO latency histograms register there, so they appear in the process
  // scrape; otherwise the counters are standalone cells owned by the store.
  // PlanStoreStats is a thin view over them either way.
  static StatusOr<std::unique_ptr<PlanStore>> Open(const std::string& directory,
                                                   metrics::Registry* registry = nullptr);

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  const std::string& directory() const { return directory_; }

  // Whether a record for `sig` is indexed (it may still fail validation on Load).
  bool Contains(const PlanSignature& sig) const;

  // Loads and fully validates the record for `sig`. NOT_FOUND when absent; DATA_LOSS
  // (counted in stats().corrupt_skipped) when the record fails any validation step.
  StatusOr<BatchPlan> Load(const PlanSignature& sig);

  // Atomically writes (or replaces) the record for `sig`.
  Status Put(const PlanSignature& sig, const BatchPlan& plan);

  // All indexed signatures, sorted by (hi, lo) so callers that serialize the set
  // (ExportBundle, gossip indexes) produce identical bytes in every process.
  std::vector<PlanSignature> Signatures() const;

  PlanStoreStats stats() const;

  // Concatenates every valid record into a portable bundle file (atomic write). Corrupt
  // records are counted and skipped. Returns the number of records exported.
  StatusOr<int> ExportBundle(const std::string& file);
  // Imports records from a bundle, validating each; corrupt entries are counted and
  // skipped. Returns the number of records imported.
  StatusOr<int> ImportBundle(const std::string& file);

  // Record codec, exposed for tests and the bundle path. EncodeRecord produces the full
  // header + plan payload + CRC32 byte stream; DecodeRecord validates everything.
  static std::string EncodeRecord(const PlanSignature& sig, const BatchPlan& plan);
  static StatusOr<std::pair<PlanSignature, BatchPlan>> DecodeRecord(
      std::string_view bytes);

 private:
  explicit PlanStore(std::string directory) : directory_(std::move(directory)) {}

  std::string RecordPath(const PlanSignature& sig) const;
  // Writes `bytes` to `path` via temp file + rename.
  Status AtomicWrite(const std::string& path, std::string_view bytes);

  const std::string directory_;

  mutable Mutex mu_;
  // Signature -> record filename (basename).
  std::unordered_map<PlanSignature, std::string, PlanSignatureHash> index_
      DCP_GUARDED_BY(mu_);
  // Pointers set once in Open before the store is published; every Add happens
  // with mu_ held so stats() snapshots stay coherent (atomic cells keep the
  // reads tear-free).
  metrics::Counter* hits_ = nullptr;
  metrics::Counter* writes_ = nullptr;
  metrics::Counter* corrupt_skipped_ = nullptr;
  std::unique_ptr<metrics::Counter[]> owned_cells_;  // Backing when registry-less.
  metrics::Histogram* read_latency_us_ = nullptr;   // Load: file read + decode.
  metrics::Histogram* write_latency_us_ = nullptr;  // Put: encode + atomic write.
  int64_t temp_counter_ DCP_GUARDED_BY(mu_) = 0;
};

}  // namespace dcp

#endif  // DCP_CORE_PLAN_STORE_H_
