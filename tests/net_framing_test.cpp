// net/ layer unit tier: length-prefixed framing across arbitrary chunk
// boundaries, the oversize guard, loopback transport round-trips, batched
// sends (same frames as a send_frame loop, same fault schedule under the
// shim), and the backoff dialer's give-up path.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "net/framing.h"
#include "net/transport.h"
#include "util/rng.h"

namespace bdg::net {
namespace {

/// A dialed connection and the listener's accepted end of it.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
loopback_pair(Listener& listener) {
  auto client = dial("127.0.0.1", listener.port());
  std::unique_ptr<Connection> server;
  for (int i = 0; client && i < 100 && !server; ++i) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return {std::move(client), std::move(server)};
}

/// Run `send` on its own thread (a batch can outgrow the socket buffer)
/// while `count` frames are read from `from`.
std::vector<std::string> receive_while(Connection& from, std::size_t count,
                                       const std::function<bool()>& send) {
  bool sent = false;
  std::thread sender([&] { sent = send(); });
  std::vector<std::string> got;
  std::string payload;
  while (got.size() < count &&
         from.recv_frame(payload, 5000) == RecvStatus::kFrame)
    got.push_back(payload);
  sender.join();
  EXPECT_TRUE(sent);
  return got;
}

/// Frames of mixed sizes, empty ones included, totalling several flushes.
std::vector<std::string> mixed_frames() {
  Rng rng(11);
  std::vector<std::string> frames;
  std::size_t total = 0;
  while (total < 4 * kSendFlushBytes) {
    const std::size_t len = frames.size() % 50 == 7 ? 3 * kSendFlushBytes / 2
                                                    : rng.below(900);
    frames.emplace_back(len, static_cast<char>('a' + frames.size() % 26));
    total += 4 + len;
  }
  frames.emplace_back();
  return frames;
}

/// A Channel that keeps what reaches it, for the fault shim to wrap.
class RecordingChannel : public Channel {
 public:
  RecordingChannel(std::vector<std::string>& sent, bool& closed)
      : sent_(sent), closed_(closed) {}
  bool send_frame(std::string_view payload) override {
    if (closed_) return false;
    sent_.emplace_back(payload);
    return true;
  }
  RecvStatus recv_frame(std::string&, int) override {
    return RecvStatus::kClosed;
  }
  void shutdown() override { closed_ = true; }
  [[nodiscard]] int fd() const override { return -1; }

 private:
  std::vector<std::string>& sent_;
  bool& closed_;
};

TEST(Framing, EncodesBigEndianLengthPrefix) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(Framing, ReassemblesAcrossEveryChunkBoundary) {
  const std::string a = encode_frame("first frame");
  const std::string b = encode_frame("");  // empty payloads are legal
  const std::string c = encode_frame(std::string(3000, 'x'));
  const std::string stream = a + b + c;

  // Feed the concatenated stream split at every possible boundary: the
  // reader must produce the same three payloads regardless of chunking.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameReader reader;
    reader.feed(stream.data(), cut);
    std::vector<std::string> got;
    while (auto f = reader.next()) got.push_back(std::move(*f));
    reader.feed(stream.data() + cut, stream.size() - cut);
    while (auto f = reader.next()) got.push_back(std::move(*f));
    ASSERT_EQ(got.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(got[0], "first frame");
    EXPECT_EQ(got[1], "");
    EXPECT_EQ(got[2], std::string(3000, 'x'));
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(Framing, ByteAtATimeFeedStillDecodes) {
  const std::string frame = encode_frame("slow drip");
  FrameReader reader;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(frame.data() + i, 1);
    EXPECT_FALSE(reader.next().has_value());
  }
  reader.feed(frame.data() + frame.size() - 1, 1);
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "slow drip");
}

TEST(Framing, OversizedLengthPrefixThrowsInsteadOfAllocating) {
  FrameReader reader;
  const char huge[4] = {'\x7f', '\x7f', '\x7f', '\x7f'};
  reader.feed(huge, 4);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

TEST(Transport, LoopbackFrameRoundTrip) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);
  auto client = dial("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  std::unique_ptr<Connection> server;
  for (int i = 0; i < 100 && !server; ++i) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE(client->send_frame("ping"));
  std::string payload;
  ASSERT_EQ(server->recv_frame(payload, 2000), RecvStatus::kFrame);
  EXPECT_EQ(payload, "ping");
  ASSERT_TRUE(server->send_frame("pong"));
  ASSERT_EQ(client->recv_frame(payload, 2000), RecvStatus::kFrame);
  EXPECT_EQ(payload, "pong");

  // Peer close: frames sent before the close are still handed out, then
  // the reader reports kClosed.
  ASSERT_TRUE(client->send_frame("last words"));
  client->shutdown();
  ASSERT_EQ(server->recv_frame(payload, 2000), RecvStatus::kFrame);
  EXPECT_EQ(payload, "last words");
  EXPECT_EQ(server->recv_frame(payload, 2000), RecvStatus::kClosed);
}

TEST(Transport, SendFramesDeliversWhatASendFrameLoopDelivers) {
  const std::vector<std::string> frames = mixed_frames();
  const std::vector<std::string_view> views(frames.begin(), frames.end());
  Listener listener(0);
  auto [client, server] = loopback_pair(listener);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const std::vector<std::string> looped =
      receive_while(*server, frames.size(), [&, &c = *client] {
        for (const std::string& f : frames)
          if (!c.send_frame(f)) return false;
        return true;
      });
  const std::vector<std::string> batched = receive_while(
      *server, frames.size(), [&, &c = *client] { return c.send_frames(views); });
  EXPECT_EQ(looped, frames);
  EXPECT_EQ(batched, frames);

  // A small batch (below one flush) and an empty one.
  const std::vector<std::string_view> small = {"header", "", "body"};
  const std::vector<std::string> got = receive_while(
      *server, small.size(), [&, &c = *client] { return c.send_frames(small); });
  EXPECT_EQ(got, (std::vector<std::string>{"header", "", "body"}));
  EXPECT_TRUE(client->send_frames({}));

  client->shutdown();
  EXPECT_FALSE(client->send_frames(small));
  std::string payload;
  EXPECT_EQ(server->recv_frame(payload, 2000), RecvStatus::kClosed);
}

TEST(Transport, FaultyBatchDrawsTheSameScheduleAsAFrameLoop) {
  std::vector<std::string> frames;
  for (int i = 0; i < 40; ++i) frames.push_back("frame " + std::to_string(i));
  const std::vector<std::string_view> views(frames.begin(), frames.end());

  FaultConfig drop;
  drop.enabled = true;
  drop.seed = 3;
  drop.drop = 0.3;
  FaultConfig close = drop;
  close.seed = 5;
  close.close_after_frames = 17;
  FaultConfig delay = drop;
  delay.seed = 9;
  delay.drop = 0.1;
  delay.delay = 0.2;
  delay.delay_ms = 1;

  for (const FaultConfig& cfg : {drop, close, delay}) {
    SCOPED_TRACE(to_string(cfg));
    std::vector<std::string> batch_sent, loop_sent;
    bool batch_closed = false, loop_closed = false;
    FaultyChannel batch(
        std::make_unique<RecordingChannel>(batch_sent, batch_closed), cfg);
    FaultyChannel loop(
        std::make_unique<RecordingChannel>(loop_sent, loop_closed), cfg);

    // Two batches, so the second continues the first one's schedule.
    const std::vector<std::string_view> first(views.begin(), views.begin() + 15);
    const std::vector<std::string_view> second(views.begin() + 15, views.end());
    bool batch_ok = batch.send_frames(first);
    if (batch_ok) batch_ok = batch.send_frames(second);
    bool loop_ok = true;
    for (const std::string_view v : views)
      if (!(loop_ok = loop.send_frame(v))) break;

    EXPECT_EQ(batch_ok, loop_ok);
    EXPECT_EQ(batch.frames_seen(), loop.frames_seen());
    EXPECT_EQ(batch_sent, loop_sent);
    EXPECT_EQ(batch_closed, loop_closed);
    EXPECT_LT(batch_sent.size(), frames.size()) << "the schedule never fired";
  }
}

TEST(Transport, RecvTimesOutWithoutTraffic) {
  Listener listener(0);
  auto client = dial("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  std::string payload;
  EXPECT_EQ(client->recv_frame(payload, 30), RecvStatus::kTimeout);
}

TEST(Transport, ClosedListenerRefusesDials) {
  Listener listener(0);
  const std::uint16_t port = listener.port();
  listener.close();
  EXPECT_EQ(dial("127.0.0.1", port), nullptr);
}

TEST(Transport, BackoffDialerGivesUpAgainstDeadPort) {
  Listener listener(0);
  const std::uint16_t dead_port = listener.port();
  listener.close();  // nothing listens here now

  BackoffConfig cfg;
  cfg.attempts = 4;
  cfg.base_ms = 1;
  cfg.max_ms = 4;
  Rng jitter(1);
  EXPECT_EQ(dial_with_backoff("127.0.0.1", dead_port, cfg, jitter), nullptr);

  // Cancellation is polled before every attempt.
  int polls = 0;
  EXPECT_EQ(dial_with_backoff("127.0.0.1", dead_port, cfg, jitter,
                              [&polls] {
                                ++polls;
                                return true;
                              }),
            nullptr);
  EXPECT_EQ(polls, 1);
}

}  // namespace
}  // namespace bdg::net
