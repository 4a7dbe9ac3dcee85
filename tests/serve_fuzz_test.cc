// The serve daemon's contract with its clients:
//  - framing robustness: a ServeLoop fed malformed JSON, unknown commands,
//    truncated frames, oversized lines, mid-write disconnects, and a seeded
//    storm of mutated frames answers with typed error replies (or cleanly
//    drops the connection where the stream cannot resynchronize) and keeps
//    serving valid requests afterwards — one bad client never costs the
//    next one its daemon;
//  - transport independence: a run_cell reply carries exactly the payload
//    the in-process engine hands assembly, under a digest that checks it;
//  - socket hygiene: the inode is 0600, a live server refuses a bind
//    collision, and a stale socket from a crashed server is unlinked and
//    rebound.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/eval/serve.h"
#include "src/suite/workloads.h"

#if !defined(_WIN32)

#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

namespace memsentry {
namespace {

// A live ServeLoop on a background thread, torn down via the protocol's own
// shutdown command.
class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ::signal(SIGPIPE, SIG_IGN);  // mid-write drops are the point of the test
    socket_path_ = ::testing::TempDir() + "ms_fuzz_" + std::to_string(::getpid()) + ".sock";
    ::unlink(socket_path_.c_str());
    eval::ServeOptions options;
    options.socket_path = socket_path_;
    options.registry = &suite::SuiteRegistry();
    options.jobs = 1;
    options.quiet = true;
    server_ = std::thread([this, options] { serve_status_ = eval::ServeLoop(options); });
    ASSERT_TRUE(WaitForPing()) << "serve socket never came up: " << socket_path_;
  }

  void TearDown() override {
    if (server_.joinable()) {
      json::Value shutdown = json::Value::Object();
      shutdown.Set("cmd", "shutdown");
      auto reply = eval::ServeRequest(socket_path_, shutdown);
      EXPECT_TRUE(reply.ok() && reply->BoolOr("ok", false));
      server_.join();
      EXPECT_EQ(serve_status_, 0);
    }
  }

  bool WaitForPing() {
    json::Value ping = json::Value::Object();
    ping.Set("cmd", "ping");
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto reply = eval::ServeRequest(socket_path_, ping);
      if (reply.ok() && reply->BoolOr("ok", false)) {
        return true;
      }
      ::usleep(50'000);
    }
    return false;
  }

  // Raw client connection with send/recv timeouts so a hypothetical server
  // wedge fails the test instead of hanging it.
  int Connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    return fd;
  }

  // Sends raw bytes (best effort — the server may drop us mid-write) and
  // reads one reply line ("" on EOF/timeout). `half_close` shuts the write
  // side first, so a frame without a newline still presents EOF; with
  // `read_reply` false the connection is torn down without waiting (the
  // mid-write vanish case — the server gets no frame terminator at all).
  std::string Exchange(const std::string& bytes, bool half_close = false,
                       bool read_reply = true) {
    const int fd = Connect();
    EXPECT_GE(fd, 0);
    if (fd < 0) {
      return "";
    }
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        break;  // server already dropped us — a legitimate outcome here
      }
      sent += static_cast<size_t>(n);
    }
    if (half_close) {
      ::shutdown(fd, SHUT_WR);  // EOF mid-frame without closing the read side
    }
    std::string reply;
    if (read_reply) {
      char c = 0;
      while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
        reply.push_back(c);
      }
    }
    ::close(fd);
    return reply;
  }

  // The reply's typed error code ("" when the reply is empty or untyped).
  static std::string Code(const std::string& reply) {
    if (reply.empty()) {
      return "";
    }
    auto parsed = json::Parse(reply);
    if (!parsed.ok() || parsed->BoolOr("ok", true)) {
      return "";
    }
    return parsed->StringOr("code", "");
  }

  std::string socket_path_;
  std::thread server_;
  int serve_status_ = -1;
};

TEST_F(ServeFixture, TypedRejectionsForClassifiableGarbage) {
  EXPECT_EQ(Code(Exchange("this is not json\n")), "bad_json");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"ping\"", /*half_close=*/true)), "truncated_frame")
      << "EOF mid-frame";
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"explode\"}\n")), "unknown_cmd");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"run_cell\"}\n")), "missing_field");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"run_cell\",\"workload\":\"no_such\","
                          "\"cell\":\"x\"}\n")),
            "unknown_workload");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"run_cell\",\"workload\":\"fault_matrix\","
                          "\"cell\":\"no_such_cell\",\"quick\":true,"
                          "\"instructions\":100000}\n")),
            "unknown_cell");
  // submit with no workload resolves the empty name against the registry.
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"submit\"}\n")), "unknown_workload");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"wait\",\"job\":424242}\n")), "unknown_job");
  // The loop survived every rejection.
  EXPECT_TRUE(WaitForPing());
}

TEST_F(ServeFixture, OversizedLineGetsTypedReplyThenDrop) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  // Stream junk past the line cap in chunks; the server stops reading at the
  // cap and replies, so late writes may fail — that is the drop in action.
  const std::string chunk(1u << 20, 'a');
  size_t pushed = 0;
  while (pushed <= eval::kServeMaxLineBytes + chunk.size()) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    pushed += static_cast<size_t>(n);
  }
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
    reply.push_back(c);
  }
  ::close(fd);
  if (!reply.empty()) {  // the reply can be lost if the kernel reset us first
    auto parsed = json::Parse(reply);
    ASSERT_TRUE(parsed.ok()) << reply;
    EXPECT_FALSE(parsed->BoolOr("ok", true));
    EXPECT_EQ(parsed->StringOr("code", ""), "oversized_line");
  }
  EXPECT_TRUE(WaitForPing());
}

// Two requests in one send: the reader keeps the bytes after the first
// newline for the next round, and both are answered, in order.
TEST_F(ServeFixture, PipelinedRequestsAreAnsweredInOrder) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  const std::string both = "{\"cmd\":\"workloads\"}\n{\"cmd\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, both.data(), both.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(both.size()));
  std::vector<std::string> replies(1);
  char c = 0;
  while (replies.size() < 3 && ::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') {
      replies.emplace_back();
    } else {
      replies.back().push_back(c);
    }
  }
  ::close(fd);
  ASSERT_EQ(replies.size(), 3u) << "expected two reply lines";
  auto first = json::Parse(replies[0]);
  auto second = json::Parse(replies[1]);
  ASSERT_TRUE(first.ok() && second.ok()) << replies[0] << "\n" << replies[1];
  EXPECT_TRUE(first->BoolOr("ok", false));
  EXPECT_NE(first->Find("workloads"), nullptr) << "first reply answers the first request";
  EXPECT_TRUE(second->BoolOr("ok", false));
  EXPECT_EQ(second->Find("workloads"), nullptr) << "second reply answers the ping";
}

TEST_F(ServeFixture, MidWriteDisconnectsDoNotWedgeTheLoop) {
  for (int i = 0; i < 8; ++i) {
    const int fd = Connect();
    ASSERT_GE(fd, 0);
    const std::string partial = "{\"cmd\":\"subm";
    (void)::send(fd, partial.data(), static_cast<size_t>(i) % partial.size() + 1,
                 MSG_NOSIGNAL);
    ::close(fd);  // vanish mid-frame, no EOF marker read
  }
  EXPECT_TRUE(WaitForPing());
}

// Seeded storm: mutate a pool of valid frames (truncation, byte flips,
// splices, raw noise) and throw every variant at the loop. The invariant is
// not any particular reply — it is that the server classifies or drops each
// one and still answers a clean ping afterwards.
TEST_F(ServeFixture, SeededFrameMutationStormSurvives) {
  const std::vector<std::string> pool = {
      "{\"cmd\":\"ping\"}",
      "{\"cmd\":\"workloads\"}",
      "{\"cmd\":\"status\"}",
      "{\"cmd\":\"run_cell\",\"workload\":\"fault_matrix\",\"cell\":\"x\","
      "\"quick\":true,\"instructions\":100000,\"seed\":1,\"attempt\":1}",
  };
  uint64_t rng = 0xC0FFEE;  // deterministic: failures replay exactly
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string frame = pool[next() % pool.size()];
    switch (next() % 4) {
      case 0:  // truncate
        frame.resize(next() % (frame.size() + 1));
        break;
      case 1:  // flip bytes
        for (int k = 0; k < 3 && !frame.empty(); ++k) {
          frame[next() % frame.size()] ^= static_cast<char>(1 + next() % 255);
        }
        break;
      case 2:  // splice two frames mid-byte
        frame = frame.substr(0, next() % (frame.size() + 1)) +
                pool[next() % pool.size()];
        break;
      default:  // raw noise
        frame.clear();
        for (size_t k = next() % 64; k > 0; --k) {
          frame.push_back(static_cast<char>(next() % 256));
        }
        break;
    }
    // Strip embedded newlines so one exchange stays one frame, then vary the
    // terminator: newline, EOF half-close, or hard close.
    for (char& c : frame) {
      if (c == '\n') {
        c = ' ';
      }
    }
    const unsigned ending = next() % 3;
    if (ending == 0) {
      (void)Exchange(frame + "\n");
    } else if (ending == 1) {
      (void)Exchange(frame, /*half_close=*/true);
    } else {
      // Vanish without a terminator: nothing to read back, do not wait.
      (void)Exchange(frame, /*half_close=*/false, /*read_reply=*/false);
    }
    if (iter % 50 == 0) {
      ASSERT_TRUE(WaitForPing()) << "loop wedged after iteration " << iter;
    }
  }
  EXPECT_TRUE(WaitForPing());
}

// Transport independence: for every quick cell of three workloads, the
// run_cell reply's payload is the cell's own in-process payload, its crc is
// the FNV-1a digest of that payload's compact dump, a resent request
// ("attempt":2, as a client retrying after a lost reply sends) gets the same
// bytes, and the payloads assemble into the engine job's exact metric
// stream.
TEST_F(ServeFixture, RunCellRepliesAssembleToTheEngineReport) {
  eval::WorkloadOptions wo;
  wo.quick = true;
  wo.experiment.target_instructions = 100'000;
  eval::EngineOptions engine_options;
  engine_options.jobs = 1;
  eval::CampaignEngine engine(&suite::SuiteRegistry(), engine_options);
  for (const std::string name : {"fault_matrix", "table4_micro", "ablations"}) {
    const eval::Workload* workload = suite::FindSuiteWorkload(name);
    ASSERT_NE(workload, nullptr) << name;
    std::vector<json::Value> payloads;
    for (const eval::WorkloadCell& cell : workload->cells(wo)) {
      json::Value request = json::Value::Object();
      request.Set("cmd", "run_cell");
      request.Set("workload", name);
      request.Set("cell", cell.name);
      request.Set("quick", true);
      request.Set("instructions", wo.experiment.target_instructions);
      request.Set("seed", wo.experiment.seed);
      request.Set("attempt", 1);
      auto reply = eval::ServeRequest(socket_path_, request);
      ASSERT_TRUE(reply.ok()) << name << "/" << cell.name << ": " << reply.status().message();
      ASSERT_TRUE(reply->BoolOr("ok", false)) << reply->Dump(0);
      const json::Value* payload = reply->Find("payload");
      ASSERT_NE(payload, nullptr) << name << "/" << cell.name;
      const std::string bytes = payload->Dump(0);
      EXPECT_EQ(bytes, cell.run(wo).Dump(0)) << name << "/" << cell.name;
      char crc[17];
      std::snprintf(crc, sizeof(crc), "%016llx",
                    static_cast<unsigned long long>(eval::ServeFrameDigest(bytes)));
      EXPECT_EQ(reply->StringOr("crc", ""), crc) << name << "/" << cell.name;

      request.Set("attempt", 2);
      auto again = eval::ServeRequest(socket_path_, request);
      ASSERT_TRUE(again.ok()) << again.status().message();
      EXPECT_EQ(again->Dump(0), reply->Dump(0)) << name << "/" << cell.name;
      payloads.push_back(*payload);
    }
    eval::ReportBuilder assembled;
    EXPECT_EQ(workload->assemble(wo, payloads, assembled), 0) << name;
    const eval::JobReport* job = engine.Wait(engine.Submit(name, wo));
    ASSERT_NE(job, nullptr) << name;
    ASSERT_EQ(job->status, 0) << name;
    EXPECT_EQ(assembled.metrics().Dump(0), job->report.metrics().Dump(0)) << name;
  }
}

TEST_F(ServeFixture, SocketModeIsOwnerOnlyAndLiveCollisionRefused) {
  struct stat st{};
  ASSERT_EQ(::stat(socket_path_.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 07777, 0600u);

  // A second loop on the same path must refuse to steal a live socket...
  eval::ServeOptions options;
  options.socket_path = socket_path_;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.quiet = true;
  EXPECT_EQ(eval::ServeLoop(options), 1);
  // ...and the original server is untouched.
  EXPECT_TRUE(WaitForPing());
}

TEST(ServeSocket, StaleSocketIsUnlinkedAndRebound) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::string path =
      ::testing::TempDir() + "ms_stale_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  // Leave a dead socket inode behind, as a crashed server would.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);  // no listener ever answers here
  }

  eval::ServeOptions options;
  options.socket_path = path;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.quiet = true;
  int status = -1;
  std::thread server([&] { status = eval::ServeLoop(options); });
  json::Value ping = json::Value::Object();
  ping.Set("cmd", "ping");
  bool up = false;
  for (int attempt = 0; attempt < 100 && !up; ++attempt) {
    auto reply = eval::ServeRequest(path, ping);
    up = reply.ok() && reply->BoolOr("ok", false);
    if (!up) {
      ::usleep(50'000);
    }
  }
  EXPECT_TRUE(up) << "stale socket was not reclaimed";
  json::Value shutdown = json::Value::Object();
  shutdown.Set("cmd", "shutdown");
  auto reply = eval::ServeRequest(path, shutdown);
  EXPECT_TRUE(reply.ok() && reply->BoolOr("ok", false));
  server.join();
  EXPECT_EQ(status, 0);
}

}  // namespace
}  // namespace memsentry

#endif  // !_WIN32
