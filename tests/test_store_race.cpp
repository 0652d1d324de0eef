//===- tests/test_store_race.cpp - Concurrent store writers and kills -----==//
//
// The store's crash/concurrency contract: saveStoreFile writes a uniquely
// named temporary and rename()s it into place, so a reader — or a
// concurrent read-modify-write checkpointer — always sees some writer's
// *complete* document, never an interleaving.  And when a checkpoint IS
// cut short (the SaveKillHook truncates the text at a record boundary,
// simulating a power cut that raced the rename), the loader recovers
// whatever survives instead of failing the next warm start.
//
// Runs under the TSan lane (EVM_SANITIZE=thread) to also prove the writes
// are race-free at the memory level, not just at the file level.
//
//===----------------------------------------------------------------------===//

#include "harness/Fleet.h"
#include "server/StoreGateway.h"
#include "store/KnowledgeStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace evm;
using namespace evm::store;

namespace {

std::string tmpStore(const char *Name) {
  std::string Path = ::testing::TempDir() + "evm_race_" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// A small but multi-section document, distinguishable per writer.
KnowledgeStore makeDoc(uint64_t Generation, double Tag) {
  KnowledgeStore KS;
  KS.Header.Generation = Generation;
  KS.Header.App = "race-test";
  KS.HasConfidence = true;
  KS.Confidence = Tag;
  KS.CvConfidence = Tag / 2;
  KS.RunsSeen = Generation;
  KS.RepRuns.push_back({Generation, Generation + 1});
  return KS;
}

size_t countLines(const std::string &Text) {
  size_t N = 0;
  for (char C : Text)
    N += C == '\n';
  return N;
}

} // namespace

TEST(StoreRaceTest, TwoWriterCheckpointsNeverCorruptTheStore) {
  std::string Path = tmpStore("two_writers.store");
  constexpr int Iterations = 40;

  // Each writer runs the exact evm_cli checkpoint shape: reload, merge its
  // own document in under newest-wins, save.  Interleavings may lose one
  // side's update (last rename wins) but must never produce a damaged or
  // half-written file.
  auto Writer = [&](double Tag) {
    for (int I = 0; I != Iterations; ++I) {
      KnowledgeStore Disk;
      StoreReadStats Stats;
      LoadStatus St = loadStoreFile(Path, Disk, Stats);
      ASSERT_NE(St, LoadStatus::IoError);
      if (St == LoadStatus::Loaded) {
        ASSERT_TRUE(Stats.clean());
      }
      KnowledgeStore Mine = makeDoc(Disk.Header.Generation + 1, Tag);
      ASSERT_TRUE(saveStoreFile(Path, mergeStores(Disk, Mine)));
    }
  };

  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    // A concurrent observer: every load must be clean — NotFound before
    // the first rename lands is the only other legal outcome.
    while (!Stop.load(std::memory_order_relaxed)) {
      KnowledgeStore KS;
      StoreReadStats Stats;
      LoadStatus St = loadStoreFile(Path, KS, Stats);
      ASSERT_NE(St, LoadStatus::IoError);
      if (St == LoadStatus::Loaded) {
        ASSERT_TRUE(Stats.clean());
        ASSERT_TRUE(KS.HasConfidence);
      }
    }
  });
  std::thread A(Writer, 0.25), B(Writer, 0.75);
  A.join();
  B.join();
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();

  KnowledgeStore Final;
  StoreReadStats Stats;
  ASSERT_EQ(loadStoreFile(Path, Final, Stats), LoadStatus::Loaded);
  EXPECT_TRUE(Stats.clean());
  // Lost updates are legal, so the generation only bounds loosely: each of
  // the 80 saves writes read+1, which caps it at 2*Iterations, and the
  // adversarial floor for two racing read-modify-write incrementers is the
  // classic 2 (each side can clobber the other with a maximally stale
  // read).  TSan's scheduler actually finds sub-Iterations interleavings
  // that the OS scheduler never produces.
  EXPECT_GE(Final.Header.Generation, 2u);
  EXPECT_LE(Final.Header.Generation, static_cast<uint64_t>(2 * Iterations));
  EXPECT_TRUE(Final.Confidence == 0.25 || Final.Confidence == 0.75);
  std::remove(Path.c_str());
}

TEST(StoreRaceTest, ConcurrentSaversToOnePathLeaveACompleteDocument) {
  // Blind concurrent writers (no RMW): the unique .tmp.<pid>.<seq> names
  // mean they race only on the atomic rename, so the survivor is one
  // writer's full serialization, byte for byte.
  std::string Path = tmpStore("blind_writers.store");
  std::vector<std::string> Docs;
  for (uint64_t W = 0; W != 4; ++W)
    Docs.push_back(makeDoc(W + 1, 0.1 * (W + 1)).serialize());

  std::vector<std::thread> Pool;
  for (uint64_t W = 0; W != 4; ++W)
    Pool.emplace_back([&, W] {
      for (int I = 0; I != 25; ++I)
        ASSERT_TRUE(saveStoreFile(Path, makeDoc(W + 1, 0.1 * (W + 1))));
    });
  for (std::thread &T : Pool)
    T.join();

  std::string Survivor;
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    char Buf[64 << 10];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Survivor.append(Buf, N);
    std::fclose(F);
  }
  EXPECT_NE(std::find(Docs.begin(), Docs.end(), Survivor), Docs.end())
      << "file is not any writer's complete document";
  std::remove(Path.c_str());
}

namespace {
std::atomic<int> KillAtLine{-1};
int killHook(const std::string &) { return KillAtLine.load(); }
} // namespace

TEST(StoreRaceTest, KilledCheckpointRecoversOnNextLoad) {
  std::string Path = tmpStore("killed.store");
  KnowledgeStore Full = makeDoc(7, 0.5);
  Full.Models.push_back(StoredMethodModel{true, 2, "", 7});
  size_t Lines = countLines(Full.serialize());
  ASSERT_GT(Lines, 4u);

  // Cut the checkpoint at every record boundary.  Whatever the kill point,
  // the next load must succeed (possibly reporting damage) — a warm start
  // never becomes a hard failure.
  setSaveKillHook(killHook);
  for (size_t Cut = 0; Cut != Lines; ++Cut) {
    KillAtLine.store(static_cast<int>(Cut));
    ASSERT_TRUE(saveStoreFile(Path, Full));
    KnowledgeStore KS;
    StoreReadStats Stats;
    LoadStatus St = loadStoreFile(Path, KS, Stats);
    if (Cut == 0)
      // Zero lines == empty file == indistinguishable from no store yet.
      EXPECT_TRUE(St == LoadStatus::Loaded || St == LoadStatus::NotFound)
          << "cut=" << Cut;
    else
      ASSERT_EQ(St, LoadStatus::Loaded) << "cut=" << Cut;
  }

  // Hook off: the next checkpoint heals the store completely.
  KillAtLine.store(-1);
  setSaveKillHook(nullptr);
  ASSERT_TRUE(saveStoreFile(Path, Full));
  KnowledgeStore KS;
  StoreReadStats Stats;
  ASSERT_EQ(loadStoreFile(Path, KS, Stats), LoadStatus::Loaded);
  EXPECT_TRUE(Stats.clean());
  EXPECT_EQ(KS.Header.Generation, 7u);
  EXPECT_EQ(KS.serialize(), Full.serialize());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The serving layer's StoreGateway on top of the same contract: snapshot
// isolation must make torn merges unobservable even while many lanes
// publish concurrently, and a kill racing the drain-time fold must leave
// the global store loadable.
//===----------------------------------------------------------------------===//

TEST(StoreRaceTest, GatewaySnapshotsNeverExposeATornMerge) {
  // Memory-only gateway: 4 "lanes" publish striped-generation checkpoints
  // into one app while readers continuously take snapshots.  Every
  // publisher writes internally consistent documents (CvConfidence is
  // always Confidence/2), so a reader seeing CvConfidence != Confidence/2
  // would have caught a half-merged document.  Snapshot generations must
  // also be monotone per reader: newest-wins merge never goes backwards.
  server::StoreGateway GW("");
  constexpr size_t Lanes = 4;
  constexpr uint64_t Publishes = 30;
  constexpr uint64_t Stride = harness::FleetRunner::GenerationStride;

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int R = 0; R != 2; ++R)
    Readers.emplace_back([&] {
      uint64_t LastGen = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        server::StoreGateway::Snapshot S = GW.snapshot("served");
        ASSERT_NE(S, nullptr);
        if (S->empty())
          continue;
        ASSERT_TRUE(S->HasConfidence);
        ASSERT_EQ(S->CvConfidence, S->Confidence / 2)
            << "torn merge: fields from different publications";
        ASSERT_GE(S->Header.Generation, LastGen)
            << "snapshot went backwards";
        LastGen = S->Header.Generation;
      }
    });

  std::vector<std::thread> Publishers;
  for (size_t L = 0; L != Lanes; ++L)
    Publishers.emplace_back([&, L] {
      for (uint64_t K = 1; K <= Publishes; ++K) {
        KnowledgeStore KS = makeDoc((L + 1) * Stride + K, 0.1 * (L + 1));
        KS.Header.App = "served";
        ASSERT_TRUE(GW.publish("served", L, KS));
      }
    });
  for (std::thread &T : Publishers)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Readers)
    T.join();

  // All publications merged: the final snapshot carries the highest stripe
  // (lane 3's last generation wins newest-wins) and every lane's rep runs.
  server::StoreGateway::Snapshot Final = GW.snapshot("served");
  EXPECT_EQ(GW.publishes(), Lanes * Publishes);
  EXPECT_EQ(Final->Header.Generation, Lanes * Stride + Publishes);
  EXPECT_EQ(Final->Confidence, 0.1 * Lanes);
  EXPECT_EQ(Final->CvConfidence, Final->Confidence / 2);
}

TEST(StoreRaceTest, KilledGatewayFoldLeavesGlobalStoreLoadable) {
  // A SIGKILL racing the drain-time fold (simulated by the SaveKillHook
  // truncating the fold's write at a record boundary) must leave
  // global-<app>.store loadable — degraded, never bricked — and the next
  // clean fold heals it completely.
  std::string Dir = ::testing::TempDir() + "evm_race_gateway";
  {
    server::StoreGateway GW(Dir);
    KnowledgeStore KS = makeDoc(harness::FleetRunner::GenerationStride + 1,
                                0.5);
    KS.Header.App = "served";
    KS.Models.push_back(StoredMethodModel{true, 2, "", 7});
    ASSERT_TRUE(GW.publish("served", 0, KS));

    KillAtLine.store(2); // cut mid-document, past the header
    setSaveKillHook(killHook);
    GW.fold("served");
    KillAtLine.store(-1);
    setSaveKillHook(nullptr);

    KnowledgeStore Loaded;
    StoreReadStats Stats;
    ASSERT_NE(loadStoreFile(GW.globalPath("served"), Loaded, Stats),
              LoadStatus::IoError)
        << "killed fold bricked the global store";

    // The snapshot is unaffected by the disk kill; a clean fold heals.
    ASSERT_TRUE(GW.fold("served"));
    Stats = StoreReadStats();
    ASSERT_EQ(loadStoreFile(GW.globalPath("served"), Loaded, Stats),
              LoadStatus::Loaded);
    EXPECT_TRUE(Stats.clean());
    EXPECT_EQ(Loaded.Header.App, "served");
    EXPECT_EQ(Loaded.Header.Generation,
              harness::FleetRunner::GenerationStride + 1);
    EXPECT_EQ(Loaded.Models.size(), 1u);
    std::remove(GW.globalPath("served").c_str());
    std::remove(harness::FleetRunner::shardPath(Dir, 0).c_str());
  }
}
