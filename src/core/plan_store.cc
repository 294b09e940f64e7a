#include "core/plan_store.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"

namespace fs = std::filesystem;

namespace dcp {
namespace {

constexpr std::string_view kRecordMagic = "DCPSTORE";
constexpr std::string_view kBundleMagic = "DCPBUNDL";
constexpr uint32_t kRecordVersion = 4;
constexpr uint32_t kBundleVersion = 1;
constexpr size_t kRecordHeaderBytes = 8 + 4 + 16;  // Magic + version + signature.
constexpr size_t kMinRecordBytes = kRecordHeaderBytes + 4;
constexpr size_t kBundleHeaderBytes = 8 + 4 + 4;  // Magic + version + record count.
// A record larger than this is rejected before being read into memory: no real plan
// comes close, and a corrupt length field must not drive a giant allocation. Bundles
// concatenate many records, so they get a proportionally larger cap.
constexpr uint64_t kMaxRecordBytes = uint64_t{1} << 30;
constexpr uint64_t kMaxBundleBytes = uint64_t{1} << 36;
constexpr const char* kRecordSuffix = ".dcpplan";

constexpr const char* kRecordFormat = "plan record";

Status Corrupt(const std::string& what) {
  return Status::DataLoss(std::string(kRecordFormat) + ": " + what);
}

bool ParseHexSignature(std::string_view stem, PlanSignature* sig) {
  if (stem.size() != 32) {
    return false;
  }
  uint64_t lanes[2] = {0, 0};  // hi, lo — ToHex prints the hi lane first.
  for (size_t i = 0; i < 32; ++i) {
    const char c = stem[i];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    lanes[i / 16] = (lanes[i / 16] << 4) | digit;
  }
  sig->hi = lanes[0];
  sig->lo = lanes[1];
  return true;
}

StatusOr<std::string> ReadFileBytes(const std::string& path,
                                    uint64_t max_bytes = kMaxRecordBytes) {
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec) {
    return Status::NotFound("cannot stat " + path + ": " + ec.message());
  }
  if (size > max_bytes) {
    return Corrupt("file " + path + " is implausibly large (" + std::to_string(size) +
                   " bytes)");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
    return Corrupt("short read on " + path);
  }
  return bytes;
}

}  // namespace

std::string PlanStore::EncodeRecord(const PlanSignature& sig, const BatchPlan& plan) {
  // The payload is encoded in place after the header, and the CRC trailer fits in the
  // room AppendPlanBinary reserved.
  ByteWriter w;
  w.Bytes(kRecordMagic);
  w.U32(kRecordVersion);
  w.U64(sig.lo);
  w.U64(sig.hi);
  AppendPlanBinary(plan, w, /*trailer_bytes=*/4);
  w.U32(Crc32(w.view()));
  return w.Take();
}

StatusOr<std::pair<PlanSignature, BatchPlan>> PlanStore::DecodeRecord(
    std::string_view bytes) {
  if (bytes.size() < kMinRecordBytes) {
    return Corrupt("truncated record (" + std::to_string(bytes.size()) + " bytes)");
  }
  // Every read below is in bounds: the record holds at least a header and a trailer.
  ByteReader r(bytes, kRecordFormat);
  if (r.Bytes(kRecordMagic.size(), "truncated magic") != kRecordMagic) {
    return Corrupt("bad magic");
  }
  const uint32_t version = r.U32();
  if (version != kRecordVersion) {
    return Corrupt("unsupported record version " + std::to_string(version));
  }
  PlanSignature sig;
  sig.lo = r.U64();
  sig.hi = r.U64();
  const std::string_view payload = r.Bytes(r.remaining() - 4, "truncated payload");
  // The checksum covers everything before the 4-byte trailer; verify it before any
  // further byte is interpreted so bit flips and torn writes stop here.
  if (r.U32() != Crc32(bytes.substr(0, bytes.size() - 4))) {
    return Corrupt("checksum mismatch");
  }
  if (sig.IsZero()) {
    return Corrupt("zero signature");
  }
  StatusOr<BatchPlan> plan = DeserializePlanBinary(payload);
  if (!plan.ok()) {
    return plan.status();
  }
  return std::make_pair(sig, std::move(plan).value());
}

StatusOr<std::unique_ptr<PlanStore>> PlanStore::Open(const std::string& directory,
                                                     metrics::Registry* registry) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("cannot create plan store directory " + directory + ": " +
                            ec.message());
  }
  std::unique_ptr<PlanStore> store(new PlanStore(directory));
  if (registry != nullptr) {
    store->hits_ = registry->GetCounter("dcp_store_hits_total", {},
                                        "Plan records loaded and validated");
    store->writes_ = registry->GetCounter("dcp_store_writes_total", {},
                                          "Plan records written (Put + import)");
    store->corrupt_skipped_ = registry->GetCounter(
        "dcp_store_corrupt_skipped_total", {},
        "Records dropped after failing validation");
    store->read_latency_us_ = registry->GetHistogram(
        "dcp_store_read_us", {}, "Record load latency: file read + decode");
    store->write_latency_us_ = registry->GetHistogram(
        "dcp_store_write_us", {}, "Record put latency: encode + atomic write");
  } else {
    store->owned_cells_ = std::make_unique<metrics::Counter[]>(3);
    store->hits_ = &store->owned_cells_[0];
    store->writes_ = &store->owned_cells_[1];
    store->corrupt_skipped_ = &store->owned_cells_[2];
  }
  // Error-code filesystem overloads throughout: a store failure must never throw out
  // of the Engine constructor — the contract is degrade-to-storeless, not crash.
  fs::directory_iterator it(directory, ec);
  if (ec) {
    return Status::Internal("cannot list plan store directory " + directory + ": " +
                            ec.message());
  }
  // An increment error ends the iteration (the iterator becomes end): the index is
  // then merely partial, which only costs warm starts, never correctness.
  for (; it != fs::directory_iterator(); it.increment(ec)) {
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec) || file_ec) {
      continue;
    }
    const fs::path& path = it->path();
    if (path.extension() != kRecordSuffix) {
      continue;
    }
    PlanSignature sig;
    if (ParseHexSignature(path.stem().string(), &sig)) {
      store->index_.emplace(sig, path.filename().string());
    }
  }
  return store;
}

std::string PlanStore::RecordPath(const PlanSignature& sig) const {
  return (fs::path(directory_) / (sig.ToHex() + kRecordSuffix)).string();
}

bool PlanStore::Contains(const PlanSignature& sig) const {
  MutexLock lock(mu_);
  return index_.find(sig) != index_.end();
}

StatusOr<BatchPlan> PlanStore::Load(const PlanSignature& sig) {
  {
    MutexLock lock(mu_);
    if (index_.find(sig) == index_.end()) {
      return Status::NotFound("no plan record for signature " + sig.ToHex());
    }
  }
  // Timed from here: an index miss loads nothing and must not add a near-zero sample.
  metrics::ScopedLatencyTimer timer(read_latency_us_);
  const std::string path = RecordPath(sig);
  StatusOr<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok() && bytes.status().code() == StatusCode::kNotFound) {
    // Transient I/O failure (cannot stat/open): the on-disk record may be perfectly
    // valid, so neither count it as corrupt nor drop it from the index — the next
    // lookup simply retries.
    return bytes.status();
  }
  Status failure = Status::Ok();
  if (!bytes.ok()) {
    failure = bytes.status();
  } else {
    StatusOr<std::pair<PlanSignature, BatchPlan>> record = DecodeRecord(bytes.value());
    if (!record.ok()) {
      failure = record.status();
    } else if (!(record.value().first == sig)) {
      failure = Corrupt("embedded signature " + record.value().first.ToHex() +
                        " does not match key " + sig.ToHex());
    } else {
      MutexLock lock(mu_);
      hits_->Increment();
      return std::move(record).value().second;
    }
  }
  // A record that failed validation drops from the index, so later misses go straight
  // to replanning instead of re-validating known-bad bytes. The file is left on disk
  // for inspection (`dcpctl cache stats` reports it as corrupt).
  MutexLock lock(mu_);
  corrupt_skipped_->Increment();
  index_.erase(sig);
  return failure;
}

Status PlanStore::AtomicWrite(const std::string& path, std::string_view bytes) {
  int64_t serial = 0;
  {
    MutexLock lock(mu_);
    serial = ++temp_counter_;
  }
  // Unique per process (pid) and per call (serial): concurrent writers of the same
  // signature never interleave into one temp file, and rename is atomic on POSIX.
  const std::string temp = path + "." + std::to_string(::getpid()) + "." +
                           std::to_string(serial) + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open " + temp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::error_code cleanup_ec;
      fs::remove(temp, cleanup_ec);
      return Status::Internal("short write to " + temp);
    }
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    std::error_code cleanup_ec;
    fs::remove(temp, cleanup_ec);
    return Status::Internal("cannot rename " + temp + " to " + path + ": " +
                            ec.message());
  }
  return Status::Ok();
}

Status PlanStore::Put(const PlanSignature& sig, const BatchPlan& plan) {
  if (sig.IsZero()) {
    return Status::InvalidArgument("cannot store a plan under the zero signature");
  }
  metrics::ScopedLatencyTimer timer(write_latency_us_);
  const std::string path = RecordPath(sig);
  DCP_RETURN_IF_ERROR(AtomicWrite(path, EncodeRecord(sig, plan)));
  MutexLock lock(mu_);
  writes_->Increment();
  index_[sig] = fs::path(path).filename().string();
  return Status::Ok();
}

std::vector<PlanSignature> PlanStore::Signatures() const {
  std::vector<PlanSignature> out;
  {
    MutexLock lock(mu_);
    out.reserve(index_.size());
    // dcp-lint: allow(unordered-iteration) — sorted below before anything observes it.
    for (const auto& [sig, file] : index_) {
      out.push_back(sig);
    }
  }
  // Sorted: ExportBundle concatenates records in this order, so bundle bytes must not
  // depend on unordered_map iteration (which varies per process with hashed pointers).
  std::sort(out.begin(), out.end(),
            [](const PlanSignature& a, const PlanSignature& b) {
              return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
            });
  return out;
}

PlanStoreStats PlanStore::stats() const {
  MutexLock lock(mu_);
  PlanStoreStats stats;
  stats.entries = static_cast<int64_t>(index_.size());
  stats.hits = hits_->value();
  stats.writes = writes_->value();
  stats.corrupt_skipped = corrupt_skipped_->value();
  return stats;
}

StatusOr<int> PlanStore::ExportBundle(const std::string& file) {
  std::vector<std::string> records;
  for (const PlanSignature& sig : Signatures()) {
    StatusOr<std::string> bytes = ReadFileBytes(RecordPath(sig));
    if (!bytes.ok() || !DecodeRecord(bytes.value()).ok()) {
      MutexLock lock(mu_);
      corrupt_skipped_->Increment();
      continue;
    }
    records.push_back(std::move(bytes).value());
  }
  ByteWriter w;
  w.Bytes(kBundleMagic);
  w.U32(kBundleVersion);
  w.U32(static_cast<uint32_t>(records.size()));
  for (const std::string& record : records) {
    w.U64(record.size());
    w.Bytes(record);
  }
  DCP_RETURN_IF_ERROR(AtomicWrite(file, w.view()));
  return static_cast<int>(records.size());
}

StatusOr<int> PlanStore::ImportBundle(const std::string& file) {
  StatusOr<std::string> bytes_or = ReadFileBytes(file, kMaxBundleBytes);
  if (!bytes_or.ok()) {
    return bytes_or.status();
  }
  const std::string& bytes = bytes_or.value();
  ByteReader r(bytes, kRecordFormat);
  if (bytes.size() < kBundleHeaderBytes ||
      r.Bytes(kBundleMagic.size(), "truncated bundle magic") != kBundleMagic) {
    return Corrupt("bad bundle magic");
  }
  const uint32_t version = r.U32();
  if (version != kBundleVersion) {
    return Corrupt("unsupported bundle version " + std::to_string(version));
  }
  const uint32_t count = r.U32();
  int imported = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t length = r.U64();
    if (r.failed()) {
      return Corrupt("truncated bundle entry header");
    }
    if (length > r.remaining()) {
      return Corrupt("bundle entry length exceeds bundle");
    }
    const std::string_view record =
        r.Bytes(static_cast<size_t>(length), "bundle entry length exceeds bundle");
    StatusOr<std::pair<PlanSignature, BatchPlan>> decoded = DecodeRecord(record);
    if (!decoded.ok()) {
      MutexLock lock(mu_);
      corrupt_skipped_->Increment();
      continue;
    }
    const PlanSignature& sig = decoded.value().first;
    DCP_RETURN_IF_ERROR(AtomicWrite(RecordPath(sig), record));
    {
      MutexLock lock(mu_);
      writes_->Increment();
      index_[sig] = sig.ToHex() + kRecordSuffix;
    }
    ++imported;
  }
  if (!r.AtEnd()) {
    return Corrupt("trailing garbage after bundle entries");
  }
  return imported;
}

}  // namespace dcp
