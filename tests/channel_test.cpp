// Tests for link emulation: service rate, queueing delay, droptail, loss
// models, and channel profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/channel.hpp"
#include "channel/link.hpp"
#include "channel/loss.hpp"
#include "channel/profile.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace hvc::channel {
namespace {

using net::make_packet;
using net::PacketPtr;
using sim::milliseconds;
using sim::seconds;

PacketPtr data_packet(std::int64_t size, net::FlowId flow = 1) {
  auto p = make_packet();
  p->flow = flow;
  p->size_bytes = size;
  p->tp.len = static_cast<std::uint32_t>(size - net::kHeaderBytes);
  return p;
}

LinkConfig basic_config(sim::RateBps rate, sim::Duration delay) {
  LinkConfig cfg;
  cfg.capacity = trace::CapacityTrace::constant(rate);
  cfg.prop_delay = delay;
  return cfg;
}

TEST(Link, DeliversWithPropagationDelay) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), milliseconds(10)));
  sim::Time delivered_at = -1;
  link.set_receiver([&](PacketPtr) { delivered_at = s.now(); });
  link.send(data_packet(1500));
  s.run();
  // 1 ms serialization slot + 10 ms propagation.
  EXPECT_EQ(delivered_at, milliseconds(11));
}

TEST(Link, ServiceRateMatchesTrace) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), 0));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 3000; ++i) link.send(data_packet(1500));
  s.run_until(seconds(1));
  // 12 Mbps = 1000 MTU/s; allow the boundary opportunity.
  EXPECT_GE(delivered, 999);
  EXPECT_LE(delivered, 1001);
}

TEST(Link, SmallPacketsShareOpportunityInBytesMode) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), 0));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  // 30 ACK-sized packets (50 B each) fit in one 1500 B opportunity.
  for (int i = 0; i < 30; ++i) link.send(data_packet(50));
  s.run_until(milliseconds(1));
  EXPECT_EQ(delivered, 30);
}

TEST(Link, PacketPerOpportunityModeIsStrict) {
  sim::Simulator s;
  auto cfg = basic_config(sim::mbps(12), 0);
  cfg.mode = ServiceMode::kPacketPerOpportunity;
  Link link(s, cfg);
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 30; ++i) link.send(data_packet(50));
  s.run_until(milliseconds(5));
  EXPECT_EQ(delivered, 5);  // one per opportunity regardless of size
}

TEST(Link, DropTailWhenQueueFull) {
  sim::Simulator s;
  auto cfg = basic_config(sim::mbps(2), 0);
  cfg.queue_limit_bytes = 15000;  // 10 packets
  Link link(s, cfg);
  int delivered = 0;
  int dropped = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  link.set_drop_observer([&](PacketPtr) { ++dropped; });
  for (int i = 0; i < 100; ++i) link.send(data_packet(1500));
  s.run();
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(delivered + dropped, 100);
  EXPECT_EQ(link.stats().dropped_queue_packets, dropped);
}

TEST(Link, FifoOrderPreserved) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), milliseconds(5)));
  std::vector<std::uint64_t> order;
  link.set_receiver([&](PacketPtr p) { order.push_back(p->id); });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) {
    auto p = data_packet(1500);
    sent.push_back(p->id);
    link.send(std::move(p));
  }
  s.run();
  EXPECT_EQ(order, sent);
}

TEST(Link, QueueDelayGrowsWithBacklog) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), 0));
  for (int i = 0; i < 100; ++i) link.send(data_packet(1500));
  // 100 packets at 1 ms each -> ~100 ms estimated queue delay.
  const auto est = link.estimated_queue_delay();
  EXPECT_NEAR(sim::to_millis(est), 100.0, 5.0);
}

TEST(Link, EstimatedDeliveryDelayIncludesPropagation) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), milliseconds(25)));
  const auto est = link.estimated_delivery_delay(1500);
  EXPECT_NEAR(sim::to_millis(est), 26.0, 1.0);
}

TEST(Link, ConservationNoLossNoDrops) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(60), milliseconds(5)));
  std::int64_t delivered_bytes = 0;
  link.set_receiver([&](PacketPtr p) { delivered_bytes += p->size_bytes; });
  std::int64_t sent_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t size = 100 + (i % 14) * 100;
    sent_bytes += size;
    link.send(data_packet(size));
  }
  s.run();
  EXPECT_EQ(delivered_bytes, sent_bytes);
  EXPECT_EQ(link.stats().delivered_packets, 500);
}

TEST(LossModel, BernoulliRateApproximatelyRespected) {
  LossModel m({.bernoulli = 0.1}, sim::Rng(77));
  int drops = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (m.should_drop()) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.1, 0.01);
}

TEST(LossModel, LosslessNeverDrops) {
  LossModel m(LossConfig{}, sim::Rng(1));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(m.should_drop());
}

TEST(LossModel, GilbertElliottBursts) {
  LossConfig cfg;
  cfg.ge_p_good_to_bad = 0.01;
  cfg.ge_p_bad_to_good = 0.2;
  cfg.ge_loss_in_bad = 0.5;
  LossModel m(cfg, sim::Rng(5));
  // Measure burstiness: conditional drop probability after a drop should
  // exceed the marginal drop probability.
  int drops = 0;
  int after_drop = 0;
  int after_drop_drops = 0;
  bool prev = false;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const bool d = m.should_drop();
    if (prev) {
      ++after_drop;
      if (d) ++after_drop_drops;
    }
    if (d) ++drops;
    prev = d;
  }
  const double marginal = static_cast<double>(drops) / kTrials;
  const double conditional =
      static_cast<double>(after_drop_drops) / after_drop;
  EXPECT_GT(conditional, marginal * 1.5);
}

TEST(Link, WireLossCountsSeparatelyFromQueueDrops) {
  sim::Simulator s;
  auto cfg = basic_config(sim::mbps(60), 0);
  cfg.loss.bernoulli = 0.2;
  cfg.loss_seed = 3;
  Link link(s, cfg);
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 1000; ++i) link.send(data_packet(1500));
  s.run();
  EXPECT_EQ(link.stats().dropped_queue_packets, 0);
  EXPECT_GT(link.stats().dropped_wire_packets, 120);
  EXPECT_LT(link.stats().dropped_wire_packets, 280);
  EXPECT_EQ(delivered + link.stats().dropped_wire_packets, 1000);
}

TEST(ChannelProfiles, UrllcMatchesPaperNumbers) {
  const auto p = urllc_profile();
  EXPECT_EQ(p.rtt(), milliseconds(5) / 1 * 1);  // 5 ms RTT
  EXPECT_NEAR(p.capacity_down.average_rate_bps(), 2e6, 2e4);
  EXPECT_TRUE(p.reliable);
}

TEST(ChannelProfiles, EmbbConstantMatchesFig1Setup) {
  const auto p = embb_constant_profile();
  EXPECT_EQ(p.rtt(), milliseconds(50));
  EXPECT_NEAR(p.capacity_down.average_rate_bps(), 60e6, 60e4);
  EXPECT_FALSE(p.reliable);
}

TEST(HvcSet, SelectorsFindExpectedChannels) {
  sim::Simulator s;
  HvcSet set(s);
  set.add(embb_constant_profile());
  set.add(urllc_profile());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.first_reliable(), 1u);
  EXPECT_EQ(set.lowest_latency(), 1u);
  EXPECT_EQ(set.highest_bandwidth(Direction::kDownlink), 0u);
}

TEST(HvcSet, NoReliableChannelReturnsSize) {
  sim::Simulator s;
  HvcSet set(s);
  set.add(embb_constant_profile());
  EXPECT_EQ(set.first_reliable(), 1u);
}

TEST(Channel, CostAccruesWithTraffic) {
  sim::Simulator s;
  Channel ch(s, cisp_profile(milliseconds(8), sim::mbps(10), 1.0));
  int delivered = 0;
  ch.downlink().set_receiver([&](PacketPtr) { ++delivered; });
  // Pace the offered load at the link rate so droptail never engages.
  for (int i = 0; i < 1000; ++i) {
    s.at(milliseconds(i), [&] { ch.downlink().send(data_packet(1000)); });
  }
  s.run();
  // ~1 MB at $1/MB, minus ~0.1% bernoulli loss.
  EXPECT_GT(ch.cost_accrued(), 0.9);
  EXPECT_LE(ch.cost_accrued(), 1.0);
}

TEST(Link, TraceDrivenOutageStallsDelivery) {
  sim::Simulator s;
  // 100 ms of service, then a 500 ms gap, looping each second.
  std::vector<sim::Time> opps;
  for (int ms = 0; ms < 100; ++ms) opps.push_back(milliseconds(ms));
  for (int ms = 600; ms < 1000; ++ms) opps.push_back(milliseconds(ms));
  LinkConfig cfg;
  cfg.capacity = trace::CapacityTrace::from_opportunities(opps, seconds(1));
  cfg.prop_delay = 0;
  Link link(s, cfg);
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](PacketPtr) { arrivals.push_back(s.now()); });

  // Offer a packet at t=150 ms (inside the outage window).
  s.at(milliseconds(150), [&] { link.send(data_packet(1500)); });
  s.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], milliseconds(600));
}

TEST(Link, RecentDeliveryRateMatchesTraceCountOracle) {
  // recent_delivery_rate_bps() counts its 200 ms window with cursors that
  // only move forward; the trace's binary-search count is the oracle.
  // Queries come at nondecreasing times: bursts at one instant, short
  // steps, period wraps and idle gaps longer than the 700 ms period, with
  // the outage and rate-cliff knobs toggled between queries. Opportunities
  // and queries share a 1 ms grid, so window ends often land exactly on
  // an opportunity (the (from, to] boundary cases).
  constexpr sim::Duration kPeriod = milliseconds(700);
  constexpr sim::Duration kWindow = milliseconds(200);
  sim::Rng rng(2024);
  std::vector<sim::Time> opps;
  for (int i = 0; i < 300; ++i) {
    opps.push_back(milliseconds(rng.uniform_int(0, 699)));
    // Clusters: several MTUs at one instant.
    if (rng.chance(0.2)) opps.push_back(opps.back());
  }
  LinkConfig cfg;
  cfg.capacity = trace::CapacityTrace::from_opportunities(opps, kPeriod);
  sim::Simulator s;
  Link link(s, cfg);

  const auto check = [&] {
    const sim::Time to = std::max<sim::Time>(s.now(), kWindow);
    const double expected =
        link.fault_down()
            ? 0.0
            : static_cast<double>(
                  cfg.capacity.opportunities_in(to - kWindow, to)) *
                  1500.0 * 8.0 / sim::to_seconds(kWindow) *
                  link.fault_rate_scale();
    EXPECT_DOUBLE_EQ(link.recent_delivery_rate_bps(), expected)
        << "at " << s.now();
  };
  sim::Time t = 0;
  int checks = 0;
  for (int i = 0; i < 3000; ++i) {
    const double u = rng.uniform();
    if (u < 0.7) {
      t += milliseconds(rng.uniform_int(1, 30));
    } else if (u < 0.9) {
      t += milliseconds(rng.uniform_int(100, 700));
    } else if (u < 0.97) {
      t += milliseconds(rng.uniform_int(701, 2800));  // idle gap
    }  // else: another query at the same instant
    const double fault = rng.uniform();
    s.at(t, [&, fault] {
      check();
      if (fault < 0.05) {
        link.fault_set_down(!link.fault_down());
      } else if (fault < 0.10) {
        link.fault_set_rate_scale(fault < 0.075 ? 0.5 : 1.0);
      }
      check();  // same timestamp, after any toggle
      ++checks;
    });
  }
  s.run();
  EXPECT_EQ(checks, 3000);
}

}  // namespace
}  // namespace hvc::channel
