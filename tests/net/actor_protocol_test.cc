// Malformed LOOKUP_STEP frames at an actor host: the route cursor arrives
// from outside the process, so every field the router would trust is
// checked before the visit and a bad one answers kProtocolError.
#include <gtest/gtest.h>

#include <span>
#include <variant>
#include <vector>

#include "chord/chord_network.h"
#include "common/router.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/wire.h"

namespace peercache::net {
namespace {

chord::ChordNetwork SmallRing() {
  chord::ChordParams params;
  params.bits = 8;
  chord::ChordNetwork net(params);
  EXPECT_TRUE(net.BulkAdd({10, 80, 150, 220}).ok());
  net.StabilizeAll();
  return net;
}

/// Delivers one STEP at `at` and returns the host's single reply.
Result<AnyMessage> Deliver(const ActorHost<chord::ChordNetwork>& host,
                           uint64_t at, const LookupStep& step,
                           uint64_t* reply_dst) {
  Envelope env;
  env.src = kClientAddress;
  env.dst = at;
  env.payload = Encode(step);
  std::vector<Outbound> out;
  host.HandleMessage(env, out);
  EXPECT_EQ(out.size(), 1u);
  if (out.empty()) return Status::Internal("no reply");
  *reply_dst = out[0].dst;
  return Decode(std::span<const uint8_t>(out[0].payload));
}

LookupStep LiveStep(uint64_t at, uint64_t key) {
  LookupStep step;
  step.lookup_id = 7;
  step.origin = at;
  step.cursor.current = at;
  step.cursor.key = key;
  step.cursor.truth = 220;
  step.cursor.flags = 0;  // live, fault-free
  return step;
}

bool IsProtocolError(const Result<AnyMessage>& reply) {
  if (!reply.ok()) return false;
  const auto* done = std::get_if<LookupDone>(&reply.value());
  return done != nullptr &&
         done->status ==
             static_cast<uint8_t>(LookupWireStatus::kProtocolError);
}

TEST(ActorProtocol, WellFormedStepIsRouted) {
  const chord::ChordNetwork net = SmallRing();
  const ActorHost<chord::ChordNetwork> host(net, {});
  uint64_t dst = 0;
  const auto reply = Deliver(host, 10, LiveStep(10, 230), &dst);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(IsProtocolError(reply));
}

TEST(ActorProtocol, StepForAnotherNodeIsRejected) {
  const chord::ChordNetwork net = SmallRing();
  const ActorHost<chord::ChordNetwork> host(net, {});
  uint64_t dst = 0;
  EXPECT_TRUE(IsProtocolError(Deliver(host, 80, LiveStep(10, 230), &dst)));
  EXPECT_EQ(dst, kClientAddress);
}

TEST(ActorProtocol, StepAtUnknownNodeIsRejected) {
  const chord::ChordNetwork net = SmallRing();
  const ActorHost<chord::ChordNetwork> host(net, {});
  uint64_t dst = 0;
  EXPECT_TRUE(IsProtocolError(Deliver(host, 99, LiveStep(99, 230), &dst)));
}

TEST(ActorProtocol, ResilientStepAtFaultFreeHostIsRejected) {
  const chord::ChordNetwork net = SmallRing();
  const ActorHost<chord::ChordNetwork> host(net, {});
  LookupStep step = LiveStep(10, 230);
  step.cursor.flags = overlay::RouteCursor::kResilient;
  uint64_t dst = 0;
  EXPECT_TRUE(IsProtocolError(Deliver(host, 10, step, &dst)));
}

TEST(ActorProtocol, DoneBitOnTheWireIsIgnored) {
  // Only a live route travels; a stray done bit must not end it early.
  const chord::ChordNetwork net = SmallRing();
  const ActorHost<chord::ChordNetwork> host(net, {});
  LookupStep step = LiveStep(10, 230);
  uint64_t dst_live = 0;
  const auto live = Deliver(host, 10, step, &dst_live);
  step.cursor.flags = overlay::RouteCursor::kDone;
  uint64_t dst_flagged = 0;
  const auto flagged = Deliver(host, 10, step, &dst_flagged);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(flagged.ok());
  EXPECT_EQ(dst_live, dst_flagged);
  EXPECT_TRUE(live.value() == flagged.value());
}

}  // namespace
}  // namespace peercache::net
