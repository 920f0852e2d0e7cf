// Closed-loop UDP request/response pair, as used in the paper's real-Internet
// evaluation (§8): the client sends a 40-byte request, the server echoes a
// 40-byte response, the client records the request-response RTT and
// immediately issues the next request.
#ifndef SRC_TRANSPORT_UDP_PINGPONG_H_
#define SRC_TRANSPORT_UDP_PINGPONG_H_

#include "src/net/node.h"
#include "src/transport/endpoint.h"
#include "src/util/stats.h"

namespace bundler {

inline constexpr uint32_t kPingPongBytes = 40;

// Server half: echoes each request back to the client.
class UdpEchoServer : public PacketHandler {
 public:
  UdpEchoServer(Host* host, uint64_t flow_id);
  void HandlePacket(Packet pkt) override;

 private:
  Host* host_;
};

// Client half: drives the closed loop and records RTT samples (milliseconds).
class UdpPingPongClient : public PacketHandler {
 public:
  UdpPingPongClient(Host* host, uint64_t flow_id, FlowKey key);

  void Start();
  void HandlePacket(Packet pkt) override;

  const QuantileEstimator& rtt_ms() const { return rtt_ms_; }
  uint64_t completed() const { return completed_; }
  uint64_t timeouts() const { return timeouts_; }
  // Restrict recording to [from, to) — lets scenarios measure specific phases.
  void SetRecordingWindow(TimePoint from, TimePoint to);

 private:
  // A lost request or response would otherwise stall the closed loop
  // forever; after this long with no reply, give up and issue a new request
  // (the lost exchange is counted in `timeouts_` and contributes no sample).
  static constexpr auto kResponseTimeout = TimeDelta::Seconds(2);

  void SendRequest();
  void OnTimeout(int64_t seq);

  Host* host_;
  uint64_t flow_id_;
  FlowKey key_;
  QuantileEstimator rtt_ms_;
  uint64_t completed_ = 0;
  uint64_t timeouts_ = 0;
  int64_t next_seq_ = 0;
  EventId timeout_timer_ = kInvalidEventId;
  TimePoint record_from_ = TimePoint::Zero();
  TimePoint record_to_ = TimePoint::Infinite();
};

// Builds the pair (client on `client_host`, echo server on `server_host`)
// and starts the loop.
UdpPingPongClient* StartUdpPingPong(FlowTable* table, Host* client_host, Host* server_host);

}  // namespace bundler

#endif  // SRC_TRANSPORT_UDP_PINGPONG_H_
