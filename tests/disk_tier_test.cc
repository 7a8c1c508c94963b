// The on-disk index tier (util/file.h, util/blob_source.h, Map/CompactFiles):
//
//   * differential — a file-served (mmap, borrowed-arena) index must answer
//     every query bit-identically to the heap Deserialize round trip and to
//     the ground-truth oracle, across all three ViewLabelModes, single-run
//     and merged;
//   * compaction — CompactFiles output is byte-identical to a from-scratch
//     Merge of the same snapshots, including when the inputs are themselves
//     merged archives (re-merge without flattening), and its peak live-store
//     count is independent of the input count (one parsed input alive at a
//     time);
//   * crash recovery — a run checkpointed as delta files survives a torn
//     final write: the surviving prefix reassembles via FromDeltas into
//     exactly the snapshot at that watermark, and the torn tail is rejected
//     as kMalformedBlob, never an abort;
//   * golden archives — tests/testdata holds one committed FVLIDX3 and one
//     FVLMRG2 file; the suite Map()s them and checks they still match what
//     the same seed produces today, so a serialization format change that
//     forgets to bump the magic fails here first. Regenerate with
//     FVL_REGEN_GOLDEN=1 ./disk_tier_test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/check.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kDefault,
                                       ViewLabelMode::kQueryEfficient};

// Every file the suite writes lives in one private directory, made on
// first use and removed at exit: runs leave nothing behind, and concurrent
// runs of the suite cannot overwrite each other's archives.
const std::string& ScratchDir() {
  static const struct Dir {
    std::string path;
    Dir() {
      const char* tmp = std::getenv("TMPDIR");
      path = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
      path += "/fvl_disk_tier_XXXXXX";
      FVL_CHECK(::mkdtemp(path.data()) != nullptr);
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path;
}

std::string TempPath(const std::string& name) {
  return ScratchDir() + "/" + name;
}

void WriteFileOrDie(const std::string& path, std::string_view blob) {
  FVL_ASSERT_OK_AND_ASSIGN(FileHandle out, FileHandle::CreateTruncate(path));
  ASSERT_TRUE(out.WriteAll(blob).ok());
  ASSERT_TRUE(out.Close().ok());
}

Result<std::string> ReadFileBytes(const std::string& path) {
  Result<FileHandle> file = FileHandle::OpenRead(path);
  if (!file.ok()) return file.status();
  return file->ReadAll();
}

// Paper-example service with registered views; every suite below shares
// this shape. Serving caches stay off so the mapped and heap paths cannot
// hide behind a shared memo.
struct Fixture {
  PaperExample example = MakePaperExample();
  std::shared_ptr<ProvenanceService> service;
  ViewHandle grey;

  // Wrap the call in ASSERT_NO_FATAL_FAILURE.
  void Init() {
    FVL_ASSERT_OK_AND_ASSIGN(service, ProvenanceService::Create(example.spec));
    FVL_ASSERT_OK_AND_ASSIGN(grey, service->RegisterView(example.grey_view));
    service->set_serving_cache_enabled(false);
  }

  std::vector<ViewHandle> views() { return {service->default_view(), grey}; }
};

// ----- Differential: mapped == heap == oracle. -----

TEST(DiskTierDifferential, SingleRunMappedMatchesHeapAndOracle) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  auto session = fx.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 220, .seed = 41});
  ProvenanceIndex heap = session->Snapshot();
  const std::string blob = heap.Serialize();
  const std::string path = TempPath("single.fvlidx");
  WriteFileOrDie(path, blob);

  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex mapped, ProvenanceIndex::Map(path));
  // The mapping, not a copy, backs the long-label arena (unless this run
  // happened to produce none).
  EXPECT_TRUE(mapped.store().arena_borrowed() ||
              mapped.store().arena_bits() == 0);
  // Serialization is the identity on the mapped form too.
  EXPECT_EQ(mapped.Serialize(), blob);

  Rng rng(7);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 160; ++q) {
    queries.push_back({rng.NextInt(0, heap.num_items() - 1),
                       rng.NextInt(0, heap.num_items() - 1)});
  }
  for (ViewHandle view : fx.views()) {
    FVL_ASSERT_OK_AND_ASSIGN(const CompiledView* compiled,
                             fx.service->CompiledRegularView(view));
    ProvenanceOracle oracle(session->run(), *compiled);
    for (ViewLabelMode mode : kAllModes) {
      FVL_ASSERT_OK_AND_ASSIGN(
          std::vector<bool> from_heap,
          fx.service->DependsMany(view, heap, queries, mode));
      FVL_ASSERT_OK_AND_ASSIGN(
          std::vector<bool> from_map,
          fx.service->DependsMany(view, mapped, queries, mode));
      ASSERT_EQ(from_heap, from_map)
          << "view " << view.id() << " mode " << static_cast<int>(mode);
      for (size_t q = 0; q < queries.size(); ++q) {
        auto [d1, d2] = queries[q];
        if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
        ASSERT_EQ(from_map[q], oracle.Depends(d1, d2))
            << "d1=" << d1 << " d2=" << d2 << " view " << view.id()
            << " mode " << static_cast<int>(mode);
      }
    }
  }
}

TEST(DiskTierDifferential, MergedMappedMatchesHeapAndOracle) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  std::vector<std::shared_ptr<ProvenanceSession>> sessions;
  std::vector<ProvenanceIndex> snapshots;
  for (int r = 0; r < 3; ++r) {
    sessions.push_back(fx.service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = 150 + 23 * r,
                            .seed = 61 + static_cast<uint64_t>(r)}));
    snapshots.push_back(sessions.back()->Snapshot());
  }
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex heap,
                           ProvenanceIndex::Merge(snapshots));
  const std::string blob = heap.Serialize();
  const std::string path = TempPath("merged.fvlmrg");
  WriteFileOrDie(path, blob);

  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex mapped, ProvenanceIndex::Map(path));
  EXPECT_TRUE(mapped.store().arena_borrowed() ||
              mapped.store().arena_bits() == 0);
  EXPECT_EQ(mapped.Serialize(), blob);
  ASSERT_EQ(mapped.num_runs(), 3);

  for (ViewHandle view : fx.views()) {
    FVL_ASSERT_OK_AND_ASSIGN(const CompiledView* compiled,
                             fx.service->CompiledRegularView(view));
    for (size_t r = 0; r < snapshots.size(); ++r) {
      Rng rng(100 + r);
      std::vector<std::pair<RunItem, RunItem>> addressed;
      std::vector<std::pair<int, int>> local;
      for (int q = 0; q < 80; ++q) {
        int d1 = rng.NextInt(0, snapshots[r].num_items() - 1);
        int d2 = rng.NextInt(0, snapshots[r].num_items() - 1);
        local.push_back({d1, d2});
        addressed.push_back({{static_cast<int>(r), d1},
                             {static_cast<int>(r), d2}});
      }
      ProvenanceOracle oracle(sessions[r]->run(), *compiled);
      for (ViewLabelMode mode : kAllModes) {
        FVL_ASSERT_OK_AND_ASSIGN(
            std::vector<bool> from_heap,
            fx.service->QueryAcrossRuns(view, heap, addressed, mode));
        FVL_ASSERT_OK_AND_ASSIGN(
            std::vector<bool> from_map,
            fx.service->QueryAcrossRuns(view, mapped, addressed, mode));
        ASSERT_EQ(from_heap, from_map)
            << "run " << r << " view " << view.id() << " mode "
            << static_cast<int>(mode);
        for (size_t q = 0; q < local.size(); ++q) {
          auto [d1, d2] = local[q];
          if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
          ASSERT_EQ(from_map[q], oracle.Depends(d1, d2))
              << "run " << r << " d1=" << d1 << " d2=" << d2;
        }
      }
    }
  }
}

// ----- Compaction: bit-identity and the memory bound. -----

TEST(DiskTierCompaction, OutputBitIdenticalToFromScratchMerge) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  std::vector<ProvenanceIndex> snapshots;
  std::vector<std::string> l0_paths;
  for (int r = 0; r < 4; ++r) {
    auto session = fx.service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = 120 + 31 * r,
                            .seed = 200 + static_cast<uint64_t>(r)});
    snapshots.push_back(session->Snapshot());
    l0_paths.push_back(TempPath("l0_" + std::to_string(r) + ".fvlidx"));
    WriteFileOrDie(l0_paths[r], snapshots[r].Serialize());
  }
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex merged_snapshots,
                           ProvenanceIndex::Merge(snapshots));
  const std::string expected = merged_snapshots.Serialize();

  // L0 -> L1: compacting the run files equals merging the snapshots.
  const std::string l1_path = TempPath("l1.fvlmrg");
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex compacted,
                           fx.service->CompactFiles(l0_paths, l1_path));
  EXPECT_EQ(compacted.num_runs(), 4);
  FVL_ASSERT_OK_AND_ASSIGN(std::string l1_bytes, ReadFileBytes(l1_path));
  EXPECT_EQ(l1_bytes, expected);
  EXPECT_EQ(compacted.Serialize(), expected);

  // L1 -> L2: already-merged inputs re-merge without flattening, to the
  // same bytes again. Split the runs 1|3 to keep the order 0..3.
  const std::string half_a = TempPath("half_a.fvlmrg");
  const std::string half_b = TempPath("half_b.fvlmrg");
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex first_run,
                           ProvenanceIndex::Merge({&snapshots[0], 1}));
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex last_runs,
                           ProvenanceIndex::Merge({&snapshots[1], 3}));
  WriteFileOrDie(half_a, first_run.Serialize());
  WriteFileOrDie(half_b, last_runs.Serialize());
  const std::string l2_path = TempPath("l2.fvlmrg");
  std::vector<std::string> level1 = {half_a, half_b};
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex recompacted,
                           fx.service->CompactFiles(level1, l2_path));
  EXPECT_EQ(recompacted.num_runs(), 4);
  FVL_ASSERT_OK_AND_ASSIGN(std::string l2_bytes, ReadFileBytes(l2_path));
  EXPECT_EQ(l2_bytes, expected);

  // Mixed levels compact too: a merged archive followed by a single-run
  // one folds into the same grouped shape.
  std::vector<std::string> mixed = {half_b, l0_paths[0]};
  const std::string mixed_path = TempPath("mixed.fvlmrg");
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex from_mixed,
                           fx.service->CompactFiles(mixed, mixed_path));
  EXPECT_EQ(from_mixed.num_runs(), 4);
}

TEST(DiskTierCompaction, PeakLiveStoresIndependentOfInputCount) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  auto peak_for = [&](int num_inputs) {
    std::vector<std::string> paths;
    for (int r = 0; r < num_inputs; ++r) {
      auto session = fx.service->GenerateLabeledRun(
          RunGeneratorOptions{.target_items = 90,
                              .seed = 300 + static_cast<uint64_t>(r)});
      paths.push_back(TempPath("peak_" + std::to_string(r) + ".fvlidx"));
      WriteFileOrDie(paths.back(), session->Snapshot().Serialize());
    }
    const int base = internal::StoreCountProbe::live();
    internal::StoreCountProbe::ResetPeak();
    Result<ProvenanceIndex> compacted =
        fx.service->CompactFiles(paths, TempPath("peak_out.fvlmrg"));
    if (!compacted.ok()) {
      ADD_FAILURE() << compacted.status().ToString();
      return -1;
    }
    EXPECT_EQ(compacted->num_runs(), num_inputs);
    return internal::StoreCountProbe::peak() - base;
  };

  // The streaming contract: however many archives fold in, only one parsed
  // input is alive at a time, so the concurrent-store count is a small
  // constant — O(largest input tail + output), not O(sum of inputs).
  const int peak_two = peak_for(2);
  const int peak_eight = peak_for(8);
  EXPECT_EQ(peak_two, peak_eight);
  EXPECT_LE(peak_eight, 6);
}

// ----- Crash recovery: a torn final delta write. -----

TEST(DiskTierRecovery, TruncatedFinalDeltaLeavesSurvivingPrefixServable) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  // Replay a reference run through a fresh session, checkpointing a delta
  // file every ~60 items; after each flush record the full snapshot a
  // recovery at that watermark must reproduce.
  auto reference = fx.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 300, .seed = 77});
  auto session = fx.service->BeginRun();
  std::vector<std::string> delta_paths;
  std::vector<std::string> expected_at_watermark;
  auto flush = [&] {
    ProvenanceIndex delta = session->SnapshotDelta();
    delta_paths.push_back(
        TempPath("delta" + std::to_string(delta_paths.size()) + ".fvlidx"));
    WriteFileOrDie(delta_paths.back(), delta.Serialize());
    expected_at_watermark.push_back(session->Snapshot().Serialize());
  };
  for (int s = 0; s < reference->run().num_steps(); ++s) {
    const DerivationStep& step = reference->run().step(s);
    ASSERT_TRUE(session->Apply(step.instance, step.production).ok());
    if (session->num_items() - session->frozen_items() >= 60) flush();
  }
  flush();
  ASSERT_GE(delta_paths.size(), 3u) << "fixture too small to tear";

  FVL_ASSERT_OK_AND_ASSIGN(const std::string intact_tail,
                           ReadFileBytes(delta_paths.back()));
  for (size_t keep : {intact_tail.size() - 1, intact_tail.size() / 2,
                      size_t{7}, size_t{0}}) {
    // The crash: the final delta write stops after `keep` bytes.
    WriteFileOrDie(delta_paths.back(), intact_tail.substr(0, keep));

    // Recovery never aborts: each surviving file parses, the torn tail is
    // rejected as a malformed blob (an empty file additionally fails at
    // the mmap layer when served via Map).
    std::vector<ProvenanceIndex> survivors;
    for (const std::string& path : delta_paths) {
      FVL_ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileBytes(path));
      Result<ProvenanceIndex> parsed = ProvenanceIndex::Deserialize(bytes);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedBlob)
            << "keep=" << keep << ": " << parsed.status().ToString();
        break;
      }
      survivors.push_back(*std::move(parsed));
    }
    ASSERT_EQ(survivors.size(), delta_paths.size() - 1) << "keep=" << keep;
    if (keep > 0) {
      Result<ProvenanceIndex> mapped = ProvenanceIndex::Map(delta_paths.back());
      ASSERT_FALSE(mapped.ok());
      EXPECT_EQ(mapped.status().code(), ErrorCode::kMalformedBlob);
    }

    // The surviving prefix reassembles into exactly the snapshot at the
    // last intact watermark — nothing before the torn checkpoint is lost.
    FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex recovered,
                             ProvenanceIndex::FromDeltas(survivors));
    EXPECT_EQ(recovered.Serialize(),
              expected_at_watermark[survivors.size() - 1]);
  }
}

// ----- Service-level error paths. -----

TEST(DiskTierErrors, FileAndContentFailuresAreTyped) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  // Missing file: the open fails, typed kIo.
  Result<ProvenanceIndex> missing =
      fx.service->OpenIndexFile(TempPath("does_not_exist.fvlidx"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kIo);

  // A file that opens and maps but is not an archive: kMalformedBlob.
  const std::string garbage_path = TempPath("garbage.fvlidx");
  WriteFileOrDie(garbage_path, "this is not an index archive");
  Result<ProvenanceIndex> garbage = fx.service->OpenIndexFile(garbage_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), ErrorCode::kMalformedBlob);

  // Either endpoint maps either format: a single-run archive opened as a
  // merged one is that run, and a multi-run archive opened through
  // OpenIndexFile answers exactly as the in-process Merge.
  auto session = fx.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 80, .seed = 5});
  ProvenanceIndex snapshot = session->Snapshot();
  const std::string single_path = TempPath("format_single.fvlidx");
  WriteFileOrDie(single_path, snapshot.Serialize());
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex single_as_merged,
                           fx.service->OpenMergedIndexFile(single_path));
  EXPECT_EQ(single_as_merged.num_runs(), 1);
  EXPECT_EQ(single_as_merged.Serialize(), snapshot.Serialize());
  std::vector<ProvenanceIndex> runs = {
      snapshot, fx.service
                    ->GenerateLabeledRun(
                        RunGeneratorOptions{.target_items = 60, .seed = 6})
                    ->Snapshot()};
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex merged,
                           ProvenanceIndex::Merge(runs));
  const std::string merged_path = TempPath("format_merged.fvlmrg");
  WriteFileOrDie(merged_path, merged.Serialize());
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex mapped,
                           fx.service->OpenIndexFile(merged_path));
  ASSERT_EQ(mapped.num_runs(), 2);
  Rng rng(11);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 60; ++q) {
    RunItem a{rng.NextInt(0, 1), 0}, b{rng.NextInt(0, 1), 0};
    a.item = rng.NextInt(0, mapped.num_items(a.run) - 1);
    b.item = rng.NextInt(0, mapped.num_items(b.run) - 1);
    queries.push_back({a, b});
  }
  for (ViewLabelMode mode : kAllModes) {
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> from_map,
        fx.service->QueryAcrossRuns(fx.grey, mapped, queries, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> from_heap,
        fx.service->QueryAcrossRuns(fx.grey, merged, queries, mode));
    EXPECT_EQ(from_map, from_heap);
  }

  // Compaction attributes a bad input by position.
  std::vector<std::string> inputs = {single_path, garbage_path};
  Result<ProvenanceIndex> compacted =
      fx.service->CompactFiles(inputs, TempPath("errors_out.fvlmrg"));
  ASSERT_FALSE(compacted.ok());
  EXPECT_NE(compacted.status().ToString().find("input 1"), std::string::npos)
      << compacted.status().ToString();
}

// ----- Golden archives: committed files must keep parsing and matching. --

#ifndef FVL_TESTDATA_DIR
#error "tests/CMakeLists.txt must define FVL_TESTDATA_DIR"
#endif

// The deterministic builders behind both committed fixtures (seeds fixed
// forever; regenerate the files with FVL_REGEN_GOLDEN=1 after an
// *intentional* format change, alongside the magic bump).
std::string GoldenRunBlob(Fixture& fx) {
  return fx.service
      ->GenerateLabeledRun(RunGeneratorOptions{.target_items = 140, .seed = 9})
      ->Snapshot()
      .Serialize();
}

Result<std::string> GoldenMergedBlob(Fixture& fx) {
  std::vector<ProvenanceIndex> snapshots;
  for (int r = 0; r < 2; ++r) {
    snapshots.push_back(
        fx.service
            ->GenerateLabeledRun(RunGeneratorOptions{
                .target_items = 100 + 40 * r,
                .seed = 15 + static_cast<uint64_t>(r)})
            ->Snapshot());
  }
  Result<ProvenanceIndex> merged = ProvenanceIndex::Merge(snapshots);
  if (!merged.ok()) return merged.status();
  return merged->Serialize();
}

TEST(DiskTierGolden, CommittedArchivesServeAndMatch) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(fx.Init());
  const std::string run_path =
      std::string(FVL_TESTDATA_DIR) + "/golden_archive.fvlidx";
  const std::string merged_path =
      std::string(FVL_TESTDATA_DIR) + "/golden_archive.fvlmrg";
  const std::string run_blob = GoldenRunBlob(fx);
  FVL_ASSERT_OK_AND_ASSIGN(const std::string merged_blob,
                           GoldenMergedBlob(fx));

  if (std::getenv("FVL_REGEN_GOLDEN") != nullptr) {
    WriteFileOrDie(run_path, run_blob);
    WriteFileOrDie(merged_path, merged_blob);
    GTEST_SKIP() << "regenerated golden archives in " << FVL_TESTDATA_DIR;
  }

  // Byte-identity against today's serializer: a format change that forgot
  // to bump the magic (and regenerate these files) fails loudly here.
  FVL_ASSERT_OK_AND_ASSIGN(std::string run_file, ReadFileBytes(run_path));
  EXPECT_EQ(run_file, run_blob)
      << "golden single-run archive drifted from the current serializer";
  FVL_ASSERT_OK_AND_ASSIGN(std::string merged_file,
                           ReadFileBytes(merged_path));
  EXPECT_EQ(merged_file, merged_blob)
      << "golden merged archive drifted from the current serializer";

  // And the committed files actually serve through the mmap path.
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex run,
                           fx.service->OpenIndexFile(run_path));
  EXPECT_GT(run.num_items(), 0);
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex merged,
                           fx.service->OpenIndexFile(merged_path));
  EXPECT_EQ(merged.num_runs(), 2);
  Rng rng(3);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 40; ++q) {
    queries.push_back({rng.NextInt(0, run.num_items() - 1),
                       rng.NextInt(0, run.num_items() - 1)});
  }
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex heap,
                           ProvenanceIndex::Deserialize(run_file));
  for (ViewLabelMode mode : kAllModes) {
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> from_map,
        fx.service->DependsMany(fx.grey, run, queries, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> from_heap,
        fx.service->DependsMany(fx.grey, heap, queries, mode));
    EXPECT_EQ(from_map, from_heap);
  }
}

}  // namespace
}  // namespace fvl
