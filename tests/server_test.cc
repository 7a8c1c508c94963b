// fvl::net::ProvenanceServer: wire answers are bit-equal to direct
// in-process ProvenanceService calls. N threaded clients replay one
// recorded derivation over loopback and every response — apply echoes,
// snapshot shapes, point/batch/sweep/cross-run answers in all three
// ViewLabelModes — must match the reference computed without the network.
// Deterministic replay (same (instance, production) sequence → identical
// item ids) is what makes the comparison exact. Also under test: the
// cross-connection coalescing batcher (mean batch size > 1 under
// concurrent pipelined load), abrupt disconnects mid-frame, and
// drain-on-shutdown (no torn frames, only clean answers or kUnavailable).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/net/socket.h"
#include "fvl/net/wire.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl::net {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kDefault,
                                       ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kQueryEfficient};

struct TestRig {
  std::shared_ptr<ProvenanceService> service;
  std::unique_ptr<ProvenanceServer> server;
  View view;

  // Fills *rig; wrap the call in ASSERT_NO_FATAL_FAILURE.
  static void Make(TestRig* rig) {
    Workload bio = MakeBioAid(2012);
    rig->view = GenerateSafeView(bio, ViewGeneratorOptions{
                                            .num_expandable = 8, .seed = 8})
                    .view();
    FVL_ASSERT_OK_AND_ASSIGN(rig->service,
                             ProvenanceService::Create(std::move(bio.spec)));
    FVL_ASSERT_OK_AND_ASSIGN(rig->server,
                             ProvenanceServer::Start(rig->service));
  }
};

// The recorded op sequence: (instance, production) per step, taken from a
// deterministic generated run.
std::vector<std::pair<int, int>> RecordOpSequence(ProvenanceService& service,
                                                  int target_items, int seed) {
  auto session = service.GenerateLabeledRun(
      RunGeneratorOptions{.target_items = target_items,
                          .seed = static_cast<uint64_t>(seed)});
  std::vector<std::pair<int, int>> ops;
  ops.reserve(session->run().num_steps());
  for (int i = 0; i < session->run().num_steps(); ++i) {
    const DerivationStep& step = session->run().step(i);
    ops.push_back({step.instance, step.production});
  }
  return ops;
}

std::vector<std::pair<int, int>> RandomQueries(int num_items, int count,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> queries;
  queries.reserve(count);
  for (int q = 0; q < count; ++q) {
    queries.push_back(
        {rng.NextInt(0, num_items - 1), rng.NextInt(0, num_items - 1)});
  }
  return queries;
}

// ----- Single-client differential: every op, every mode. -----

TEST(ServerDifferential, WireAnswersBitEqualToDirectCalls) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/400, /*seed=*/17);

  // Reference: direct in-process replay on the same service.
  FVL_ASSERT_OK_AND_ASSIGN(ViewHandle direct_view,
                           rig.service->RegisterView(rig.view));
  auto direct_session = rig.service->BeginRun();
  std::vector<DerivationStep> direct_steps;
  for (const auto& [instance, production] : ops) {
    FVL_ASSERT_OK_AND_ASSIGN(DerivationStep step,
                             direct_session->Apply(instance, production));
    direct_steps.push_back(step);
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();

  // Wire: same replay through the server.
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceClient client,
                           ProvenanceClient::Connect(rig.server->port()));
  FVL_ASSERT_OK_AND_ASSIGN(uint64_t view_id, client.RegisterView(rig.view));
  FVL_ASSERT_OK_AND_ASSIGN(uint64_t session_id, client.BeginRun());
  for (size_t i = 0; i < ops.size(); ++i) {
    FVL_ASSERT_OK_AND_ASSIGN(
        DerivationStep wire_step,
        client.Apply(session_id, ops[i].first, ops[i].second));
    const DerivationStep& want = direct_steps[i];
    ASSERT_EQ(wire_step.index, want.index) << "step " << i;
    ASSERT_EQ(wire_step.instance, want.instance) << "step " << i;
    ASSERT_EQ(wire_step.production, want.production) << "step " << i;
    ASSERT_EQ(wire_step.first_child, want.first_child) << "step " << i;
    ASSERT_EQ(wire_step.first_item, want.first_item) << "step " << i;
    ASSERT_EQ(wire_step.num_items, want.num_items) << "step " << i;
  }
  FVL_ASSERT_OK_AND_ASSIGN(SnapshotInfo snapshot, client.Snapshot(session_id));
  ASSERT_EQ(snapshot.num_items, direct_index.num_items());

  std::vector<std::pair<int, int>> queries =
      RandomQueries(direct_index.num_items(), 600, 99);
  for (ViewLabelMode mode : kAllModes) {
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> direct_batch,
        rig.service->DependsMany(direct_view, direct_index, queries, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> wire_batch,
        client.DependsMany(view_id, snapshot.index_id, mode, queries));
    ASSERT_EQ(wire_batch, direct_batch) << "mode " << static_cast<int>(mode);

    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> direct_sweep,
        rig.service->VisibilitySweep(direct_view, direct_index, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> wire_sweep,
        client.VisibilitySweep(view_id, snapshot.index_id, mode));
    ASSERT_EQ(wire_sweep, direct_sweep) << "mode " << static_cast<int>(mode);

    // Point queries through the coalescing path answer identically too.
    for (int q = 0; q < 40; ++q) {
      FVL_ASSERT_OK_AND_ASSIGN(
          bool wire_answer,
          client.Depends(view_id, snapshot.index_id, mode, queries[q].first,
                         queries[q].second));
      EXPECT_EQ(wire_answer, direct_batch[q]) << "q " << q;
    }
  }
}

TEST(ServerDifferential, MergeAndQueryAcrossRunsMatchesDirect) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceClient client,
                           ProvenanceClient::Connect(rig.server->port()));
  FVL_ASSERT_OK_AND_ASSIGN(uint64_t view_id, client.RegisterView(rig.view));
  FVL_ASSERT_OK_AND_ASSIGN(ViewHandle direct_view,
                           rig.service->RegisterView(rig.view));

  // Two runs, both replayed over the wire and directly.
  std::vector<uint64_t> wire_index_ids;
  std::vector<std::string> blobs;
  std::vector<int> run_sizes;
  for (int seed : {21, 22}) {
    std::vector<std::pair<int, int>> ops =
        RecordOpSequence(*rig.service, /*target_items=*/200, seed);
    FVL_ASSERT_OK_AND_ASSIGN(uint64_t session_id, client.BeginRun());
    auto direct_session = rig.service->BeginRun();
    for (const auto& [instance, production] : ops) {
      ASSERT_TRUE(client.Apply(session_id, instance, production).ok());
      ASSERT_TRUE(direct_session->Apply(instance, production).ok());
    }
    FVL_ASSERT_OK_AND_ASSIGN(SnapshotInfo snapshot,
                             client.Snapshot(session_id));
    wire_index_ids.push_back(snapshot.index_id);
    ProvenanceIndex direct_index = direct_session->Snapshot();
    ASSERT_EQ(snapshot.num_items, direct_index.num_items());
    run_sizes.push_back(direct_index.num_items());
    blobs.push_back(direct_index.Serialize());
  }

  FVL_ASSERT_OK_AND_ASSIGN(MergeInfo merged, client.MergeRuns(wire_index_ids));
  EXPECT_EQ(merged.num_runs, 2);
  std::vector<std::string_view> views(blobs.begin(), blobs.end());
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex direct_merged,
                           rig.service->MergeRunsStreamed(views));
  ASSERT_EQ(merged.total_items, direct_merged.num_items());

  Rng rng(7);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 300; ++q) {
    RunItem a{rng.NextInt(0, 1), 0};
    RunItem b{rng.NextInt(0, 1), 0};
    a.item = rng.NextInt(0, run_sizes[a.run] - 1);
    b.item = rng.NextInt(0, run_sizes[b.run] - 1);
    queries.push_back({a, b});
  }
  for (ViewLabelMode mode : kAllModes) {
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> direct_answers,
        rig.service->QueryAcrossRuns(
            direct_view, direct_merged, queries, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> wire_answers,
        client.QueryAcrossRuns(view_id, merged.merged_id, mode, queries));
    ASSERT_EQ(wire_answers, direct_answers)
        << "mode " << static_cast<int>(mode);
  }
}

// One id space: snapshots and merges share the server's index registry, so
// every query op accepts every id — flat-id batches, point queries and
// sweeps on a merged id, and (run, item) queries on a snapshot id.
TEST(ServerDifferential, EveryQueryOpAcceptsEveryIndexId) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceClient client,
                           ProvenanceClient::Connect(rig.server->port()));
  FVL_ASSERT_OK_AND_ASSIGN(uint64_t view_id, client.RegisterView(rig.view));
  FVL_ASSERT_OK_AND_ASSIGN(ViewHandle direct_view,
                           rig.service->RegisterView(rig.view));

  std::vector<uint64_t> wire_index_ids;
  std::vector<ProvenanceIndex> direct_indexes;
  for (int seed : {31, 32}) {
    std::vector<std::pair<int, int>> ops =
        RecordOpSequence(*rig.service, /*target_items=*/180, seed);
    FVL_ASSERT_OK_AND_ASSIGN(uint64_t session_id, client.BeginRun());
    auto direct_session = rig.service->BeginRun();
    for (const auto& [instance, production] : ops) {
      ASSERT_TRUE(client.Apply(session_id, instance, production).ok());
      ASSERT_TRUE(direct_session->Apply(instance, production).ok());
    }
    FVL_ASSERT_OK_AND_ASSIGN(SnapshotInfo snapshot,
                             client.Snapshot(session_id));
    wire_index_ids.push_back(snapshot.index_id);
    direct_indexes.push_back(direct_session->Snapshot());
  }
  FVL_ASSERT_OK_AND_ASSIGN(MergeInfo merged, client.MergeRuns(wire_index_ids));
  for (uint64_t id : wire_index_ids) EXPECT_NE(merged.merged_id, id);
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceIndex direct_merged,
                           ProvenanceIndex::Merge(direct_indexes));
  ASSERT_EQ(merged.total_items, direct_merged.num_items());

  std::vector<std::pair<int, int>> flat =
      RandomQueries(direct_merged.num_items(), 300, 41);
  const ProvenanceIndex& run0 = direct_indexes[0];
  Rng rng(43);
  std::vector<std::pair<RunItem, RunItem>> addressed;
  for (int q = 0; q < 200; ++q) {
    addressed.push_back({{0, rng.NextInt(0, run0.num_items() - 1)},
                         {0, rng.NextInt(0, run0.num_items() - 1)}});
  }
  for (ViewLabelMode mode : kAllModes) {
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> direct_batch,
        rig.service->DependsMany(direct_view, direct_merged, flat, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> wire_batch,
        client.DependsMany(view_id, merged.merged_id, mode, flat));
    ASSERT_EQ(wire_batch, direct_batch) << "mode " << static_cast<int>(mode);
    for (int q = 0; q < 30; ++q) {
      FVL_ASSERT_OK_AND_ASSIGN(
          bool wire_answer, client.Depends(view_id, merged.merged_id, mode,
                                           flat[q].first, flat[q].second));
      EXPECT_EQ(wire_answer, direct_batch[q]) << "q " << q;
    }
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> wire_sweep,
        client.VisibilitySweep(view_id, merged.merged_id, mode));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> direct_sweep,
        rig.service->VisibilitySweep(direct_view, direct_merged, mode));
    ASSERT_EQ(wire_sweep, direct_sweep) << "mode " << static_cast<int>(mode);
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> wire_across,
        client.QueryAcrossRuns(view_id, wire_index_ids[0], mode, addressed));
    FVL_ASSERT_OK_AND_ASSIGN(
        std::vector<bool> direct_across,
        rig.service->QueryAcrossRuns(direct_view, run0, addressed, mode));
    ASSERT_EQ(wire_across, direct_across)
        << "mode " << static_cast<int>(mode);
  }
}

// ----- N threaded clients, one recorded sequence each. -----

TEST(ServerConcurrency, ThreadedClientsReplayBitEqual) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/250, /*seed=*/5);

  // Reference answers, computed once without the network.
  FVL_ASSERT_OK_AND_ASSIGN(ViewHandle direct_view,
                           rig.service->RegisterView(rig.view));
  auto direct_session = rig.service->BeginRun();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(direct_session->Apply(instance, production).ok());
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();
  std::vector<std::pair<int, int>> queries =
      RandomQueries(direct_index.num_items(), 256, 321);
  FVL_ASSERT_OK_AND_ASSIGN(
      std::vector<bool> want,
      rig.service->DependsMany(
          direct_view, direct_index, queries, ViewLabelMode::kQueryEfficient));

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto fail = [&](const char* what) {
        ADD_FAILURE() << "client " << c << ": " << what;
        failures.fetch_add(1);
      };
      Result<ProvenanceClient> client =
          ProvenanceClient::Connect(rig.server->port());
      if (!client.ok()) return fail("connect");
      Result<uint64_t> view_id = client->RegisterView(rig.view);
      if (!view_id.ok()) return fail("register view");
      Result<uint64_t> session_id = client->BeginRun();
      if (!session_id.ok()) return fail("begin run");
      for (const auto& [instance, production] : ops) {
        if (!client->Apply(*session_id, instance, production).ok()) {
          return fail("apply");
        }
      }
      Result<SnapshotInfo> snapshot = client->Snapshot(*session_id);
      if (!snapshot.ok()) return fail("snapshot");
      if (snapshot->num_items != direct_index.num_items()) {
        return fail("snapshot size");
      }
      // Pipelined point queries: the burst is what the batcher coalesces.
      for (const auto& [d1, d2] : queries) {
        client->QueueDepends(*view_id, snapshot->index_id,
                             ViewLabelMode::kQueryEfficient, d1, d2);
      }
      if (!client->Flush().ok()) return fail("flush");
      for (size_t q = 0; q < queries.size(); ++q) {
        Result<bool> answer = client->NextDependsAnswer();
        if (!answer.ok()) return fail("answer transport");
        if (*answer != want[q]) return fail("answer mismatch");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // All clients registered the structurally same view and replayed the
  // same derivation; the coalescing lever must have engaged.
  ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.point_queries, uint64_t{kClients} * queries.size());
  EXPECT_GT(stats.MeanBatchSize(), 1.0)
      << "batcher never coalesced: " << stats.point_queries << " queries in "
      << stats.point_batches << " batches";
  EXPECT_EQ(stats.connections, kClients);
}

// ----- Lifecycle hostility. -----

TEST(ServerLifecycle, AbruptDisconnectMidFrameIsHarmless) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  for (int round = 0; round < 8; ++round) {
    FVL_ASSERT_OK_AND_ASSIGN(Socket raw, TcpConnect(rig.server->port()));
    // A declared 64-byte frame, delivered only halfway, then gone.
    std::string partial;
    AppendU64(&partial, 64);
    partial.append(17, '\x2a');
    ASSERT_TRUE(WriteAll(raw, partial).ok());
    raw.Close();
  }
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceClient client,
                           ProvenanceClient::Connect(rig.server->port()));
  FVL_ASSERT_OK_AND_ASSIGN(uint64_t version, client.Ping());
  EXPECT_EQ(version, kProtocolVersion);
}

TEST(ServerLifecycle, StopDrainsInFlightRequests) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  // Hammer the server from several threads while Stop races in: every
  // response is either a clean answer or a clean transport error — a torn
  // frame or a wrong answer fails, a refused/cut connection does not.
  constexpr int kThreads = 4;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Result<ProvenanceClient> client =
          ProvenanceClient::Connect(rig.server->port());
      if (!client.ok()) return;
      for (int i = 0; i < 100000; ++i) {
        Result<uint64_t> version = client->Ping();
        if (!version.ok()) {
          if (version.code() != ErrorCode::kUnavailable) torn = true;
          return;  // drain reached this connection
        }
        if (*version != kProtocolVersion) torn = true;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rig.server->Stop();  // must not hang: drain completes with clients active
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());

  // Stop is idempotent, and a stopped server refuses new conversations.
  rig.server->Stop();
  Result<ProvenanceClient> late = ProvenanceClient::Connect(rig.server->port());
  if (late.ok()) {
    EXPECT_EQ(late->Ping().code(), ErrorCode::kUnavailable);
  }
}

TEST(ServerLifecycle, UnknownIdsAreNotFoundNotFatal) {
  TestRig rig;
  ASSERT_NO_FATAL_FAILURE(TestRig::Make(&rig));
  FVL_ASSERT_OK_AND_ASSIGN(ProvenanceClient client,
                           ProvenanceClient::Connect(rig.server->port()));
  EXPECT_EQ(client.Apply(999, 0, 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.Snapshot(999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(client
                .Depends(999, 999, ViewLabelMode::kDefault, 0, 0)
                .code(),
            ErrorCode::kNotFound);
  std::vector<uint64_t> ids = {12345};
  EXPECT_EQ(client.MergeRuns(ids).code(), ErrorCode::kNotFound);
  // The connection survived every rejection.
  FVL_ASSERT_OK_AND_ASSIGN(uint64_t version, client.Ping());
  EXPECT_EQ(version, kProtocolVersion);
}

}  // namespace
}  // namespace fvl::net
