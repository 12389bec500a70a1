#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/latency_model.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sim_, TestLatency(), Rng(7)) {
    for (SiteId s = 0; s < 4; ++s) {
      net_.RegisterHandler(s, [this, s](const Message& m) {
        received_[s].push_back(m);
      });
    }
  }

  static LatencyConfig TestLatency() {
    LatencyConfig cfg;
    cfg.distribution = LatencyDistribution::kFixed;
    cfg.mean = Millis(1);
    cfg.min = Micros(10);
    cfg.per_kb = 0;
    cfg.local = Micros(5);
    return cfg;
  }

  Simulator sim_;
  Network net_;
  std::map<SiteId, std::vector<Message>> received_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  EXPECT_TRUE(received_[1].empty());
  sim_.RunToQuiescence();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(sim_.Now(), Millis(1));
  EXPECT_EQ(received_[1][0].from, 0u);
  EXPECT_EQ(received_[1][0].kind(), MessageKind::kAck);
}

TEST_F(NetworkTest, LocalDeliveryIsFastAndCountedSeparately) {
  net_.Send(2, 2, Ack{TxnId{2, 1}});
  sim_.RunToQuiescence();
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(sim_.Now(), Micros(5));
  EXPECT_EQ(net_.stats().local, 1u);
  EXPECT_EQ(net_.stats().network_sent(), 0u);
}

TEST_F(NetworkTest, CrashedDestinationDropsInFlight) {
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  // Crash strikes while the message is in flight.
  sim_.After(Micros(500), [&] { net_.SetSiteUp(1, false); });
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(net_.stats().dropped[static_cast<size_t>(
                DropCause::kDestinationDown)],
            1u);
}

TEST_F(NetworkTest, CrashedSourceCannotSend) {
  net_.SetSiteUp(0, false);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(net_.stats().dropped[static_cast<size_t>(DropCause::kSourceDown)],
            1u);
}

TEST_F(NetworkTest, RecoveredSiteReceivesAgain) {
  net_.SetSiteUp(1, false);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  net_.SetSiteUp(1, true);
  net_.Send(0, 1, Ack{TxnId{0, 2}});
  sim_.RunToQuiescence();
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(NetworkTest, LinkFailureIsBidirectionalAndSelective) {
  net_.SetLinkUp(0, 1, false);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  net_.Send(1, 0, Ack{TxnId{1, 1}});
  net_.Send(0, 2, Ack{TxnId{0, 2}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_TRUE(received_[0].empty());
  EXPECT_EQ(received_[2].size(), 1u);
  net_.SetLinkUp(0, 1, true);
  net_.Send(0, 1, Ack{TxnId{0, 3}});
  sim_.RunToQuiescence();
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(NetworkTest, PartitionSeparatesGroups) {
  net_.SetPartitions({{0, 1}, {2, 3}});
  EXPECT_TRUE(net_.Reachable(0, 1));
  EXPECT_FALSE(net_.Reachable(0, 2));
  EXPECT_TRUE(net_.Reachable(2, 3));
  net_.Send(0, 2, Ack{TxnId{0, 1}});
  net_.Send(0, 1, Ack{TxnId{0, 2}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[2].empty());
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(net_.stats().dropped[static_cast<size_t>(DropCause::kPartition)],
            1u);

  net_.HealPartitions();
  net_.Send(0, 2, Ack{TxnId{0, 3}});
  sim_.RunToQuiescence();
  EXPECT_EQ(received_[2].size(), 1u);
}

TEST_F(NetworkTest, UnlistedSitesShareImplicitPartitionGroup) {
  net_.SetPartitions({{0}});
  // 1, 2, 3 are unlisted: they can talk to each other but not to 0.
  EXPECT_TRUE(net_.Reachable(1, 2));
  EXPECT_FALSE(net_.Reachable(0, 1));
}

TEST_F(NetworkTest, RandomLossDropsSome) {
  net_.set_loss_probability(0.5);
  for (int i = 0; i < 200; ++i) {
    net_.Send(0, 1, Ack{TxnId{0, static_cast<uint64_t>(i)}});
  }
  sim_.RunToQuiescence();
  size_t got = received_[1].size();
  EXPECT_GT(got, 50u);
  EXPECT_LT(got, 150u);
  EXPECT_EQ(got + net_.stats().dropped[static_cast<size_t>(
                      DropCause::kRandomLoss)],
            200u);
}

TEST_F(NetworkTest, StatsCountKindsAndBuckets) {
  net_.set_stats_bucket_width(Millis(1));
  net_.Send(0, 1, ReadRequest{TxnId{0, 1}, TxnTimestamp{1, 0}, 5});
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  sim_.RunToQuiescence();
  EXPECT_EQ(net_.stats().by_kind[static_cast<size_t>(
                MessageKind::kReadRequest)],
            1u);
  EXPECT_EQ(net_.stats().by_kind[static_cast<size_t>(MessageKind::kAck)], 1u);
  EXPECT_GE(net_.stats().per_bucket.size(), 1u);
  EXPECT_EQ(net_.stats().per_bucket[0], 2u);
  EXPECT_GT(net_.stats().bytes, 0u);
}

TEST_F(NetworkTest, OneWayLinkSeversOnlyOneDirection) {
  net_.SetLinkUpOneWay(0, 1, false);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  net_.Send(1, 0, Ack{TxnId{1, 1}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(net_.stats().dropped[static_cast<size_t>(DropCause::kLinkDown)],
            1u);
  net_.SetLinkUpOneWay(0, 1, true);
  net_.Send(0, 1, Ack{TxnId{0, 2}});
  sim_.RunToQuiescence();
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(NetworkTest, LinkDownDropInFlightIsTraced) {
  // Regression: the kLinkDown branch in Deliver() counted the drop but
  // never wrote a trace record, so a message that was in flight when the
  // link went down vanished from the trace.
  TraceCollector collector;
  collector.set_detail(TraceDetail::kFull);
  net_.set_collector(&collector);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  sim_.After(Micros(500), [&] { net_.SetLinkUpOneWay(0, 1, false); });
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(net_.stats().dropped[static_cast<size_t>(DropCause::kLinkDown)],
            1u);
  ASSERT_EQ(collector.CountKind(TraceEventKind::kMsgDrop), 1u);
  const TraceRecord& drop = collector.records().back();
  EXPECT_EQ(drop.kind, TraceEventKind::kMsgDrop);
  EXPECT_EQ(drop.site, 1u);
  EXPECT_EQ(drop.peer, 0u);
  EXPECT_EQ(drop.detail, "Ack link_down");
}

TEST_F(NetworkTest, InjectedDuplicateGetsItsOwnNetworkId) {
  // Regression: the injected copy used to ship with the original's
  // network id, making the two deliveries indistinguishable in traces.
  // The copy must carry a fresh `id` while keeping the same `rpc_id`
  // (and acknowledgement floor) so RPC-layer duplicate suppression
  // still recognizes it.
  LinkOverride o;
  o.dup_probability = 1.0;
  net_.SetLinkOverride(0, 1, o);
  net_.SendRpc(0, 1, Ack{TxnId{0, 1}}, /*rpc_id=*/77, /*is_reply=*/false,
               /*ack_floor=*/70);
  sim_.RunToQuiescence();
  ASSERT_EQ(received_[1].size(), 2u);
  EXPECT_NE(received_[1][0].id, received_[1][1].id);
  for (const Message& m : received_[1]) {
    EXPECT_EQ(m.rpc_id, 77u);
    EXPECT_EQ(m.ack_floor, 70u);
  }
}

TEST_F(NetworkTest, LossOverrideIsDirectional) {
  LinkOverride o;
  o.loss = 1.0;
  net_.SetLinkOverride(0, 1, o);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  net_.Send(1, 0, Ack{TxnId{1, 1}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(net_.stats().dropped[static_cast<size_t>(DropCause::kLinkLoss)],
            1u);
}

TEST_F(NetworkTest, DelayMultiplierScalesOnlyTheOverriddenLink) {
  LinkOverride o;
  o.delay_multiplier = 4.0;
  net_.SetLinkOverride(0, 1, o);
  net_.Send(0, 1, Ack{TxnId{0, 1}});
  sim_.RunToQuiescence();
  EXPECT_EQ(sim_.Now(), Millis(4));  // 1ms fixed latency x4
  net_.Send(1, 0, Ack{TxnId{1, 1}});
  const SimTime before = sim_.Now();
  sim_.RunToQuiescence();
  EXPECT_EQ(sim_.Now() - before, Millis(1));  // reverse direction unscaled
}

TEST_F(NetworkTest, DupOverrideDeliversExtraCopiesAndCounts) {
  LinkOverride o;
  o.dup_probability = 1.0;
  net_.SetLinkOverride(0, 1, o);
  for (int i = 0; i < 10; ++i) {
    net_.Send(0, 1, Ack{TxnId{0, static_cast<uint64_t>(i)}});
  }
  sim_.RunToQuiescence();
  EXPECT_EQ(received_[1].size(), 20u);
  EXPECT_EQ(net_.stats().duplicated, 10u);
}

TEST_F(NetworkTest, ReorderJitterStaysBoundedAndReorders) {
  LinkOverride o;
  o.reorder_jitter = Millis(5);
  net_.SetLinkOverride(0, 1, o);
  for (int i = 0; i < 50; ++i) {
    net_.Send(0, 1, Ack{TxnId{0, static_cast<uint64_t>(i)}});
  }
  sim_.RunToQuiescence();
  ASSERT_EQ(received_[1].size(), 50u);
  // Every delivery lands within base latency + jitter bound.
  EXPECT_LE(sim_.Now(), Millis(1) + Millis(5));
  // And with 50 concurrent messages, at least one pair actually swapped.
  bool out_of_order = false;
  for (size_t i = 1; i < received_[1].size(); ++i) {
    if (std::get<Ack>(received_[1][i].payload).txn.seq <
        std::get<Ack>(received_[1][i - 1].payload).txn.seq) {
      out_of_order = true;
      break;
    }
  }
  EXPECT_TRUE(out_of_order);
}

TEST_F(NetworkTest, IdentityOverrideErasesTheEntry) {
  LinkOverride o;
  o.loss = 0.5;
  net_.SetLinkOverride(2, 3, o);
  EXPECT_TRUE(net_.has_link_overrides());
  ASSERT_NE(net_.FindLinkOverride(2, 3), nullptr);
  EXPECT_EQ(net_.FindLinkOverride(3, 2), nullptr);  // directional
  net_.SetLinkOverride(2, 3, LinkOverride{});
  EXPECT_FALSE(net_.has_link_overrides());
  EXPECT_EQ(net_.FindLinkOverride(2, 3), nullptr);
}

TEST_F(NetworkTest, ClearLinkOverridesLeavesOneWayCutsAlone) {
  LinkOverride o;
  o.dup_probability = 0.3;
  net_.SetLinkOverride(0, 1, o);
  net_.SetLinkOverride(1, 2, o);
  net_.SetLinkUpOneWay(0, 3, false);
  net_.ClearLinkOverrides();
  EXPECT_FALSE(net_.has_link_overrides());
  // The one-way severed direction is separate state and survives.
  net_.Send(0, 3, Ack{TxnId{0, 1}});
  sim_.RunToQuiescence();
  EXPECT_TRUE(received_[3].empty());
  net_.SetLinkUpOneWay(0, 3, true);
  net_.Send(0, 3, Ack{TxnId{0, 2}});
  sim_.RunToQuiescence();
  EXPECT_EQ(received_[3].size(), 1u);
}

TEST(LatencyModelTest, FixedIsConstant) {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kFixed;
  cfg.mean = Millis(3);
  cfg.min = 0;
  cfg.per_kb = 0;
  LatencyModel model(cfg, Rng(1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.SampleDelay(0, 1, 100), Millis(3));
  }
}

TEST(LatencyModelTest, UniformStaysInRange) {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kUniform;
  cfg.mean = Millis(2);
  cfg.min = 0;
  cfg.per_kb = 0;
  LatencyModel model(cfg, Rng(2));
  for (int i = 0; i < 1000; ++i) {
    SimTime d = model.SampleDelay(0, 1, 100);
    EXPECT_GE(d, Millis(1));
    EXPECT_LE(d, Millis(3));
  }
}

TEST(LatencyModelTest, MinimumFloorApplies) {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kExponential;
  cfg.mean = Micros(10);
  cfg.min = Micros(200);
  cfg.per_kb = 0;
  LatencyModel model(cfg, Rng(3));
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(model.SampleDelay(0, 1, 64), Micros(200));
  }
}

TEST(LatencyModelTest, RegionsSplitLatency) {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kFixed;
  cfg.mean = Millis(1);
  cfg.inter_region_mean = Millis(25);
  cfg.regions = {0, 0, 1, 1};
  cfg.min = 0;
  cfg.per_kb = 0;
  LatencyModel model(cfg, Rng(5));
  EXPECT_EQ(model.SampleDelay(0, 1, 64), Millis(1));   // intra region 0
  EXPECT_EQ(model.SampleDelay(2, 3, 64), Millis(1));   // intra region 1
  EXPECT_EQ(model.SampleDelay(1, 2, 64), Millis(25));  // cross region
  EXPECT_EQ(model.SampleDelay(3, 0, 64), Millis(25));
  // Unlisted sites (e.g. the name server) default to region 0.
  EXPECT_EQ(model.SampleDelay(0, kNameServerId, 64), Millis(1));
  EXPECT_EQ(model.SampleDelay(2, kNameServerId, 64), Millis(25));
}

TEST(LatencyModelTest, RegionsIgnoredWhenInterMeanUnset) {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kFixed;
  cfg.mean = Millis(2);
  cfg.regions = {0, 1};
  cfg.min = 0;
  cfg.per_kb = 0;
  LatencyModel model(cfg, Rng(6));
  EXPECT_EQ(model.SampleDelay(0, 1, 64), Millis(2));
}

TEST(LatencyModelTest, SizeCostAddsPerKb) {
  LatencyConfig cfg;
  cfg.distribution = LatencyDistribution::kFixed;
  cfg.mean = Millis(1);
  cfg.min = 0;
  cfg.per_kb = Micros(100);
  LatencyModel model(cfg, Rng(4));
  EXPECT_EQ(model.SampleDelay(0, 1, 2048), Millis(1) + Micros(200));
}

TEST(MessageTest, KindMatchesPayload) {
  Payload p = PrepareRequest{};
  EXPECT_EQ(MessageKindOf(p), MessageKind::kPrepareRequest);
  p = RefreshReply{};
  EXPECT_EQ(MessageKindOf(p), MessageKind::kRefreshReply);
}

TEST(MessageTest, PayloadSizeGrowsWithContent) {
  PrepareRequest small;
  PrepareRequest big;
  big.versions.resize(10);
  big.participants.resize(10);
  // The size the network charges is the codec's exact encoding.
  for (const PrepareRequest& p : {small, big}) {
    EXPECT_EQ(EncodedPayloadSize(Payload{p}), EncodePayload(Payload{p}).size());
  }
  EXPECT_GT(EncodedPayloadSize(Payload{big}),
            EncodedPayloadSize(Payload{small}));
}

}  // namespace
}  // namespace rainbow
