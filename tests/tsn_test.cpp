// Tests for 802.1Qbv-style time-aware gating (§2.2): deterministic TSN
// service, guard-band overhead, and the multiplexing cost borne by
// best-effort traffic.
#include <gtest/gtest.h>

#include <map>

#include "channel/channel.hpp"
#include "channel/profile.hpp"
#include "net/node.hpp"
#include "steer/priority.hpp"
#include "steer/basic_policies.hpp"
#include "trace/tsn.hpp"
#include "transport/datagram.hpp"

namespace hvc::trace {
namespace {

using sim::microseconds;
using sim::milliseconds;
using sim::seconds;

TEST(TsnSchedule, SliceCapacitiesPartitionTheMedium) {
  TsnSchedule s;  // 2 ms window / 10 ms cycle / 200 us guard, 120 Mbps
  const auto tsn = tsn_slice_trace(s);
  const auto be = best_effort_slice_trace(s);
  // TSN slice ~ window share of the medium.
  EXPECT_NEAR(tsn.average_rate_bps(), 120e6 * 0.2, 120e6 * 0.03);
  // Best effort gets the rest minus both guard allocations.
  EXPECT_NEAR(be.average_rate_bps(), 120e6 * (0.8 - 2 * 0.02),
              120e6 * 0.04);
  // Combined never exceeds the medium.
  EXPECT_LT(tsn.average_rate_bps() + be.average_rate_bps(), 120e6);
}

TEST(TsnSchedule, ValidatesInputs) {
  TsnSchedule bad;
  bad.tsn_window = milliseconds(11);  // exceeds the 10 ms cycle
  EXPECT_THROW(tsn_slice_trace(bad), std::invalid_argument);
  bad = TsnSchedule{};
  bad.cycle = 0;
  EXPECT_THROW(best_effort_slice_trace(bad), std::invalid_argument);
}

TEST(TsnSchedule, NoOpportunitiesInGuardOrForeignWindow) {
  TsnSchedule s;
  const auto tsn = tsn_slice_trace(s);
  for (const auto t : tsn.expand()) {
    EXPECT_GE(t, s.guard);
    EXPECT_LT(t, s.guard + s.tsn_window);
  }
  const auto be = best_effort_slice_trace(s);
  for (const auto t : be.expand()) {
    EXPECT_GE(t, s.guard + s.tsn_window);
    EXPECT_LT(t, s.cycle - s.guard);
  }
}

TEST(TsnGating, TsnSliceDeliversWithBoundedJitter) {
  // Periodic small messages over the TSN slice: worst-case latency is one
  // cycle (miss the window) + service; the spread must stay within that
  // deterministic envelope.
  sim::Simulator sim;
  auto [tsn_profile, be_profile] = channel::wifi_tsn_gated_pair();
  net::TwoHostNetwork net(sim,
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          std::make_unique<steer::SingleChannelPolicy>(0));
  net.add_channel(tsn_profile);
  net.finalize();

  const auto flow = net::next_flow_id();
  transport::DatagramSocket tx(net.server(), flow);
  transport::DatagramSocket rx(net.client(), flow);
  sim::Summary latency_ms;
  rx.set_on_message([&](const transport::DatagramSocket::MessageEvent& ev) {
    latency_ms.add(sim::to_millis(ev.completed - ev.sent_at));
  });
  // 7 ms period deliberately co-prime with the 10 ms cycle: messages land
  // at every phase of the gate.
  for (int i = 0; i < 500; ++i) {
    sim.at(milliseconds(7 * i), [&] { tx.send_message(200, 0); });
  }
  sim.run();
  ASSERT_EQ(latency_ms.count(), 500u);
  // Envelope: OWD 3 ms + at most one 10 ms cycle of gate wait + service.
  EXPECT_LT(latency_ms.max(), 14.0);
  EXPECT_GT(latency_ms.max() - latency_ms.min(), 4.0);  // gating visible
}

TEST(TsnGating, BestEffortPaysForTheWindow) {
  // Identical bulk load over (a) ungated 120 Mbps Wi-Fi and (b) the
  // best-effort slice of a 20%-window TSN schedule: throughput drops by
  // roughly the window share plus guard overhead — §2.2's "other users
  // bear the cost".
  auto run = [&](channel::ChannelProfile profile) {
    sim::Simulator sim;
    net::TwoHostNetwork net(sim,
                            std::make_unique<steer::SingleChannelPolicy>(0),
                            std::make_unique<steer::SingleChannelPolicy>(0));
    profile.loss = channel::LossConfig{};  // isolate the gating effect
    net.add_channel(std::move(profile));
    net.finalize();
    const auto flow = net::next_flow_id();
    transport::DatagramSocket tx(net.server(), flow);
    transport::DatagramSocket rx(net.client(), flow);
    std::int64_t received = 0;
    rx.set_on_packet([&](const net::PacketPtr& p) {
      received += p->size_bytes;
    });
    // Saturating offered load, paced at just over medium rate.
    for (int i = 0; i < 11000; ++i) {
      sim.at(microseconds(95 * i), [&] { tx.send_message(1400, 0); });
    }
    sim.run_until(seconds(1));
    return static_cast<double>(received) * 8.0;  // bps over 1 s
  };

  const double ungated = run(channel::wifi_contended_profile(
      sim::mbps(120), milliseconds(6), 0.0));
  auto [tsn_profile, be_profile] = channel::wifi_tsn_gated_pair();
  const double gated = run(be_profile);
  EXPECT_LT(gated, ungated * 0.85);  // at least the 20% window + guards
  EXPECT_GT(gated, ungated * 0.6);   // but not more than the schedule takes
}

TEST(TsnGating, PrioritySteeringUsesTsnSliceForImportantTraffic) {
  // Full §2.2/§3.3 composition: TSN + best-effort slices as an HvcSet
  // with cross-layer steering; important messages get deterministic
  // latency while bulk rides the best-effort share.
  sim::Simulator sim;
  auto [tsn_profile, be_profile] = channel::wifi_tsn_gated_pair();
  // Convention: channel 0 = default/wide, channel 1 = fast/scarce.
  net::TwoHostNetwork net(sim,
                          std::make_unique<steer::MessagePriorityPolicy>(),
                          std::make_unique<steer::MessagePriorityPolicy>());
  net.add_channel(be_profile);
  net.add_channel(tsn_profile);
  net.finalize();

  const auto flow = net::next_flow_id();
  transport::DatagramSocket tx(net.server(), flow);
  transport::DatagramSocket rx(net.client(), flow);
  sim::Summary important_ms;
  rx.set_on_message([&](const transport::DatagramSocket::MessageEvent& ev) {
    if (ev.header.priority == 0) {
      important_ms.add(sim::to_millis(ev.completed - ev.sent_at));
    }
  });
  for (int i = 0; i < 300; ++i) {
    sim.at(milliseconds(7 * i), [&] {
      tx.send_message(200, 0);      // control/sensor reading
      tx.send_message(30'000, 3);   // bulk camera frame
    });
  }
  sim.run_until(seconds(4));
  ASSERT_GT(important_ms.count(), 250u);
  // Deterministic despite 34 Mbps of competing bulk on the other slice.
  EXPECT_LT(important_ms.max(), 14.0);
  EXPECT_GT(net.downlink_shim().stats().packets_per_channel[1], 250);
}

}  // namespace
}  // namespace hvc::trace
