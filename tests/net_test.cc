// Tests for the broker's TCP front end: wire-protocol parsing and full
// client/server round trips over localhost.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"

namespace tagmatch::net {
namespace {

using Tags = std::vector<std::string>;

// ------------------------------------------------------------------- wire

TEST(Wire, ParseTags) {
  auto tags = parse_tags("a,b,c");
  ASSERT_TRUE(tags.has_value());
  EXPECT_EQ(*tags, (Tags{"a", "b", "c"}));
  EXPECT_FALSE(parse_tags("a,,b").has_value());
  EXPECT_FALSE(parse_tags("").has_value());
  EXPECT_FALSE(parse_tags("a b").has_value());
  auto single = parse_tags("solo");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->size(), 1u);
}

TEST(Wire, ParseRequests) {
  auto sub = parse_request("SUB sports,football");
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->kind, Request::Kind::kSub);
  EXPECT_EQ(sub->tags, (Tags{"sports", "football"}));

  auto unsub = parse_request("UNSUB 42");
  ASSERT_TRUE(unsub.has_value());
  EXPECT_EQ(unsub->kind, Request::Kind::kUnsub);
  EXPECT_EQ(unsub->subscription, 42u);

  auto pub = parse_request("PUB a,b hello world");
  ASSERT_TRUE(pub.has_value());
  EXPECT_EQ(pub->kind, Request::Kind::kPub);
  EXPECT_EQ(pub->tags, (Tags{"a", "b"}));
  EXPECT_EQ(pub->payload, "hello world");

  auto pub_empty = parse_request("PUB a,b");
  ASSERT_TRUE(pub_empty.has_value());
  EXPECT_EQ(pub_empty->payload, "");

  auto ping = parse_request("PING");
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->kind, Request::Kind::kPing);

  EXPECT_FALSE(parse_request("NOPE x").has_value());
  EXPECT_FALSE(parse_request("SUB").has_value());
  EXPECT_FALSE(parse_request("UNSUB notanumber").has_value());
  EXPECT_FALSE(parse_request("").has_value());
}

TEST(Wire, ParseStatsAndTraceRequests) {
  auto stats = parse_request("STATS");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->kind, Request::Kind::kStats);

  auto trace = parse_request("TRACE");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->kind, Request::Kind::kTrace);
  EXPECT_EQ(trace->trace_limit, 0u);

  auto trace_n = parse_request("TRACE 128");
  ASSERT_TRUE(trace_n.has_value());
  EXPECT_EQ(trace_n->kind, Request::Kind::kTrace);
  EXPECT_EQ(trace_n->trace_limit, 128u);

  EXPECT_FALSE(parse_request("TRACE abc").has_value());
  EXPECT_FALSE(parse_request("STATS now").has_value());
}

TEST(Wire, ParseTraceFilters) {
  auto full = parse_request("TRACE 64 stage=kernel since=17");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->kind, Request::Kind::kTrace);
  EXPECT_EQ(full->trace_limit, 64u);
  EXPECT_EQ(full->trace_stage, "kernel");
  EXPECT_EQ(full->trace_since, 17u);

  auto stage_only = parse_request("TRACE stage=gather");
  ASSERT_TRUE(stage_only.has_value());
  EXPECT_EQ(stage_only->trace_limit, 0u);
  EXPECT_EQ(stage_only->trace_stage, "gather");
  EXPECT_EQ(stage_only->trace_since, 0u);

  auto since_only = parse_request("TRACE since=9");
  ASSERT_TRUE(since_only.has_value());
  EXPECT_EQ(since_only->trace_since, 9u);

  // Fail-closed grammar: unknown keys, unknown stage names, non-numeric
  // values, and a bare limit anywhere but first all reject.
  EXPECT_FALSE(parse_request("TRACE stage=bogus").has_value());
  EXPECT_FALSE(parse_request("TRACE since=abc").has_value());
  EXPECT_FALSE(parse_request("TRACE depth=3").has_value());
  EXPECT_FALSE(parse_request("TRACE stage=kernel 64").has_value());
}

TEST(Wire, TracexRoundTrip) {
  auto req = parse_request("TRACEX");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->kind, Request::Kind::kTracex);
  EXPECT_FALSE(parse_request("TRACEX now").has_value());

  auto frame = parse_server_frame(format_tracex(R"({"traceEvents":[]})"));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, ServerFrame::Kind::kTracex);
  EXPECT_EQ(frame->payload, R"({"traceEvents":[]})");
}

TEST(Wire, StatsAndTraceFramesRoundTrip) {
  auto stats = parse_server_frame(format_stats(R"({"counters":{"x":1}})"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->kind, ServerFrame::Kind::kStats);
  EXPECT_EQ(stats->payload, R"({"counters":{"x":1}})");

  auto trace = parse_server_frame(format_trace("[]"));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->kind, ServerFrame::Kind::kTrace);
  EXPECT_EQ(trace->payload, "[]");
}

TEST(Wire, ServerFramesRoundTrip) {
  auto ok = parse_server_frame(format_ok(17));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->kind, ServerFrame::Kind::kOk);
  EXPECT_EQ(ok->id, 17u);

  auto err = parse_server_frame(format_err("bad input"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, ServerFrame::Kind::kErr);
  EXPECT_EQ(err->error, "bad input");

  auto msg = parse_server_frame(format_msg(Tags{"x", "y"}, "payload text"));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, ServerFrame::Kind::kMsg);
  EXPECT_EQ(msg->tags, (Tags{"x", "y"}));
  EXPECT_EQ(msg->payload, "payload text");

  auto pong = parse_server_frame("PONG");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->kind, ServerFrame::Kind::kPong);
}

// ----------------------------------------------------------------- end-to-end

broker::BrokerConfig server_broker_config() {
  broker::BrokerConfig c;
  c.engine.num_threads = 2;
  c.engine.num_gpus = 1;
  c.engine.streams_per_gpu = 2;
  c.engine.gpu_sms_per_device = 1;
  c.engine.gpu_memory_capacity = 128ull << 20;
  c.engine.gpu_costs.enforce = false;
  c.engine.batch_size = 8;
  c.engine.max_partition_size = 32;
  c.engine.batch_timeout = std::chrono::milliseconds(2);
  c.consolidate_interval = std::chrono::milliseconds(50);
  return c;
}

class NetEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<broker::Broker>(server_broker_config());
    server_ = std::make_unique<BrokerServer>(broker_.get(), 0);
    ASSERT_TRUE(server_->listening());
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<broker::Broker> broker_;
  std::unique_ptr<BrokerServer> server_;
};

TEST_F(NetEndToEnd, PingPong) {
  BrokerClient client;
  ASSERT_TRUE(client.connect(server_->port()));
  EXPECT_TRUE(client.ping());
  client.close();
}

TEST_F(NetEndToEnd, SubscribePublishReceive) {
  BrokerClient consumer, producer;
  ASSERT_TRUE(consumer.connect(server_->port()));
  ASSERT_TRUE(producer.connect(server_->port()));

  auto sub = consumer.subscribe(Tags{"alerts"});
  ASSERT_TRUE(sub.has_value());
  ASSERT_TRUE(producer.publish(Tags{"alerts", "disk"}, "disk almost full"));

  auto msg = consumer.receive(std::chrono::milliseconds(5000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "disk almost full");
  EXPECT_EQ(msg->tags, (Tags{"alerts", "disk"}));
  // The producer has no subscription: nothing delivered to it.
  EXPECT_FALSE(producer.receive(std::chrono::milliseconds(50)).has_value());
}

TEST_F(NetEndToEnd, UnsubscribeStopsDeliveries) {
  BrokerClient consumer, producer;
  ASSERT_TRUE(consumer.connect(server_->port()));
  ASSERT_TRUE(producer.connect(server_->port()));
  auto sub = consumer.subscribe(Tags{"t"});
  ASSERT_TRUE(sub.has_value());
  ASSERT_TRUE(producer.publish(Tags{"t", "u"}, "first"));
  ASSERT_TRUE(consumer.receive(std::chrono::milliseconds(5000)).has_value());
  ASSERT_TRUE(consumer.unsubscribe(*sub));
  ASSERT_TRUE(producer.publish(Tags{"t", "u"}, "second"));
  EXPECT_FALSE(consumer.receive(std::chrono::milliseconds(200)).has_value());
}

TEST_F(NetEndToEnd, MalformedCommandsYieldErrNotDisconnect) {
  BrokerClient client;
  ASSERT_TRUE(client.connect(server_->port()));
  // Drive the raw protocol through publish of invalid tags: the client-side
  // formatter would happily send them; the server must reject and stay up.
  EXPECT_FALSE(client.publish(Tags{"bad tag with spaces"}, "x"));
  EXPECT_TRUE(client.ping());  // Connection still alive.
}

TEST_F(NetEndToEnd, ManyClientsFanOut) {
  constexpr int kConsumers = 5;
  std::vector<std::unique_ptr<BrokerClient>> consumers;
  for (int i = 0; i < kConsumers; ++i) {
    auto c = std::make_unique<BrokerClient>();
    ASSERT_TRUE(c->connect(server_->port()));
    ASSERT_TRUE(c->subscribe(Tags{"broadcast"}).has_value());
    consumers.push_back(std::move(c));
  }
  BrokerClient producer;
  ASSERT_TRUE(producer.connect(server_->port()));
  ASSERT_TRUE(producer.publish(Tags{"broadcast", "all"}, "hello everyone"));
  for (auto& c : consumers) {
    auto msg = c->receive(std::chrono::milliseconds(5000));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, "hello everyone");
  }
  EXPECT_GE(server_->connections_served(), static_cast<uint64_t>(kConsumers + 1));
}

TEST(NetTracing, TraceFilterAndTracexVerbsEndToEnd) {
  auto config = server_broker_config();
  config.engine_shards = 2;  // gather spans only exist on the sharded path
  config.tracing = true;
  config.trace_head_sample_every = 1;  // retain every publish
  broker::Broker broker(config);
  BrokerServer server(&broker, 0);
  ASSERT_TRUE(server.listening());

  BrokerClient consumer, producer;
  ASSERT_TRUE(consumer.connect(server.port()));
  ASSERT_TRUE(producer.connect(server.port()));
  ASSERT_TRUE(consumer.subscribe(Tags{"alerts"}).has_value());
  ASSERT_TRUE(producer.publish(Tags{"alerts", "gpu"}, "hot"));
  ASSERT_TRUE(consumer.receive(std::chrono::milliseconds(5000)).has_value());

  // TRACE with a stage filter returns the envelope with only gather spans.
  auto filtered = producer.trace_json(/*limit=*/4, /*stage=*/"gather");
  ASSERT_TRUE(filtered.has_value());
  EXPECT_NE(filtered->find("\"spans\":["), std::string::npos);
  EXPECT_NE(filtered->find("\"dropped\":"), std::string::npos);
  EXPECT_NE(filtered->find("\"gather\""), std::string::npos);
  EXPECT_EQ(filtered->find("\"prefilter\""), std::string::npos);

  // A bad stage name is rejected server-side (ERR, not a disconnect).
  EXPECT_FALSE(producer.trace_json(0, "bogus").has_value());
  EXPECT_TRUE(producer.ping());

  // TRACEX serves the retained causal traces; retention happens when the
  // publish finishes, so poll briefly.
  std::string tracex;
  for (int i = 0; i < 200; ++i) {
    auto json = producer.tracex_json();
    ASSERT_TRUE(json.has_value());
    tracex = *json;
    if (tracex.find("\"ph\":\"X\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(tracex.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(tracex.find("\"ph\":\"X\""), std::string::npos) << tracex;
  EXPECT_NE(tracex.find("\"publish\""), std::string::npos);
}

TEST_F(NetEndToEnd, ClientDisconnectCleansUpSubscriber) {
  {
    BrokerClient ephemeral;
    ASSERT_TRUE(ephemeral.connect(server_->port()));
    ASSERT_TRUE(ephemeral.subscribe(Tags{"gone"}).has_value());
    ephemeral.close();
  }
  // Give the server a moment to reap the connection.
  for (int i = 0; i < 200 && broker_->stats().subscribers > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(broker_->stats().subscribers, 0u);
  // Publishing to the dead subscription must not crash or deliver.
  BrokerClient producer;
  ASSERT_TRUE(producer.connect(server_->port()));
  EXPECT_TRUE(producer.publish(Tags{"gone", "now"}, "into the void"));
}

// Pulls `"name":{"count":N` out of a STATS JSON payload; 0 when absent.
uint64_t histogram_count_in_json(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":{\"count\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST_F(NetEndToEnd, StatsVerbReturnsStageHistograms) {
  BrokerClient consumer, producer;
  ASSERT_TRUE(consumer.connect(server_->port()));
  ASSERT_TRUE(producer.connect(server_->port()));
  ASSERT_TRUE(consumer.subscribe(Tags{"alerts"}).has_value());
  // Fold the subscription into the partitioned index so the publish below
  // rides the full GPU pipeline (staged-index scans bypass the kernel).
  broker_->flush();
  ASSERT_TRUE(producer.publish(Tags{"alerts", "disk"}, "x"));
  ASSERT_TRUE(consumer.receive(std::chrono::milliseconds(5000)).has_value());

  auto stats = producer.stats_json();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find('\n'), std::string::npos);
  // The acceptance surface: per-stage latency histograms covering the
  // pre-filter, kernel, copy-back and consolidate stages, with samples.
  EXPECT_GT(histogram_count_in_json(*stats, "stage.prefilter_ns"), 0u);
  EXPECT_GT(histogram_count_in_json(*stats, "stage.kernel_ns"), 0u);
  EXPECT_GT(histogram_count_in_json(*stats, "stage.d2h_ns"), 0u);
  EXPECT_GT(histogram_count_in_json(*stats, "stage.consolidate_ns"), 0u);
  EXPECT_GT(histogram_count_in_json(*stats, "query.latency_ns"), 0u);
  EXPECT_GT(histogram_count_in_json(*stats, "broker.publish_latency_ns"), 0u);
  // Broker counters ride the same snapshot.
  EXPECT_NE(stats->find("\"broker.published\":1"), std::string::npos);

  // TRACE serves the envelope form: dropped/total framing around the spans.
  auto trace = producer.trace_json(64);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->front(), '{');
  EXPECT_NE(trace->find("\"dropped\":"), std::string::npos);
  EXPECT_NE(trace->find("\"total\":"), std::string::npos);
  EXPECT_NE(trace->find("\"spans\":["), std::string::npos);
  EXPECT_NE(trace->find("\"stage\":\"kernel\""), std::string::npos);
}

TEST_F(NetEndToEnd, ServerStopIsCleanWhileClientsConnected) {
  BrokerClient client;
  ASSERT_TRUE(client.connect(server_->port()));
  ASSERT_TRUE(client.subscribe(Tags{"x"}).has_value());
  server_->stop();
  // Further commands fail but nothing hangs or crashes.
  EXPECT_FALSE(client.ping());
}

// ------------------------------------------------- trace propagation (wire)

TEST(Wire, TraceparentRoundTrip) {
  const std::string tp = format_traceparent(0xdeadbeefcafe1234ull, 0x42ull, true);
  // W3C shape: 00-<32 hex>-<16 hex>-<2 hex flags>.
  ASSERT_EQ(tp.size(), 55u);
  EXPECT_EQ(tp.substr(0, 3), "00-");
  auto parsed = parse_traceparent(tp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(parsed->parent_span_id, 0x42ull);
  EXPECT_TRUE(parsed->sampled);
  EXPECT_FALSE(parse_traceparent(format_traceparent(1, 2, false))->sampled);

  // Malformed forms reject: bad length, bad version, zero ids, non-hex.
  EXPECT_FALSE(parse_traceparent("").has_value());
  EXPECT_FALSE(parse_traceparent("01-" + tp.substr(3)).has_value());
  EXPECT_FALSE(parse_traceparent(tp.substr(0, 54)).has_value());
  EXPECT_FALSE(
      parse_traceparent("00-00000000000000000000000000000000-0000000000000001-01")
          .has_value());
  EXPECT_FALSE(
      parse_traceparent("00-00000000000000000000000000000001-0000000000000000-01")
          .has_value());
  EXPECT_FALSE(
      parse_traceparent("00-0000000000000000000000000000000g-0000000000000001-01")
          .has_value());
}

TEST(Wire, PubWithTraceparentParses) {
  const std::string tp = format_traceparent(0xabcull, 0x7ull, true);
  auto pub = parse_request("PUB a,b traceparent=" + tp + " hello world");
  ASSERT_TRUE(pub.has_value());
  EXPECT_EQ(pub->kind, Request::Kind::kPub);
  EXPECT_EQ(pub->tags, (Tags{"a", "b"}));
  EXPECT_EQ(pub->payload, "hello world");
  EXPECT_EQ(pub->pub_trace_id, 0xabcull);
  EXPECT_EQ(pub->pub_parent_span_id, 0x7ull);
  EXPECT_TRUE(pub->pub_sampled);

  // Without the token the ids stay zero (untraced) and the payload is whole.
  auto plain = parse_request("PUB a,b hello world");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->pub_trace_id, 0u);
  EXPECT_EQ(plain->payload, "hello world");

  // A malformed traceparent token rejects the request (fail-closed), it does
  // not fall through to being payload.
  EXPECT_FALSE(parse_request("PUB a,b traceparent=garbage x").has_value());
}

TEST(Wire, MsgEchoesTraceparent) {
  const std::string line = format_msg(Tags{"a"}, "payload", 0x1234ull);
  EXPECT_NE(line.find("traceparent="), std::string::npos);
  auto frame = parse_server_frame(line.substr(0, line.size() - 1));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, ServerFrame::Kind::kMsg);
  EXPECT_EQ(frame->trace_id, 0x1234ull);
  EXPECT_EQ(frame->payload, "payload");

  // Untraced messages stay bare.
  const std::string bare = format_msg(Tags{"a"}, "payload", 0);
  EXPECT_EQ(bare.find("traceparent="), std::string::npos);
  auto bare_frame = parse_server_frame(bare.substr(0, bare.size() - 1));
  ASSERT_TRUE(bare_frame.has_value());
  EXPECT_EQ(bare_frame->trace_id, 0u);
}

TEST(Wire, TsqAndTracesRequestsParse) {
  auto tsq = parse_request("TSQ stage.*_ns last=16");
  ASSERT_TRUE(tsq.has_value());
  EXPECT_EQ(tsq->kind, Request::Kind::kTsq);
  EXPECT_EQ(tsq->tsq_glob, "stage.*_ns");
  EXPECT_EQ(tsq->tsq_last, 16u);

  auto all = parse_request("TSQ *");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->tsq_glob, "*");
  EXPECT_EQ(all->tsq_last, 0u);

  EXPECT_FALSE(parse_request("TSQ").has_value());            // Glob mandatory.
  EXPECT_FALSE(parse_request("TSQ * bogus=1").has_value());  // Unknown kv.

  auto traces = parse_request("TRACES");
  ASSERT_TRUE(traces.has_value());
  EXPECT_EQ(traces->kind, Request::Kind::kTraces);

  // Frame round trips.
  auto tsq_frame = parse_server_frame("TSQ {\"capacity\":4}");
  ASSERT_TRUE(tsq_frame.has_value());
  EXPECT_EQ(tsq_frame->kind, ServerFrame::Kind::kTsq);
  auto traces_frame = parse_server_frame("TRACES {\"flushed\":0}");
  ASSERT_TRUE(traces_frame.has_value());
  EXPECT_EQ(traces_frame->kind, ServerFrame::Kind::kTraces);
}

// -------------------------------------------- trace propagation (end-to-end)

TEST(NetTelemetry, ClientTraceIdRidesPipelineAndEchoesOnDelivery) {
  auto config = server_broker_config();
  config.tracing = true;
  broker::Broker broker(config);
  BrokerServer server(&broker, 0);
  ASSERT_TRUE(server.listening());

  BrokerClient consumer, producer;
  ASSERT_TRUE(consumer.connect(server.port()));
  ASSERT_TRUE(producer.connect(server.port()));
  ASSERT_TRUE(consumer.subscribe(Tags{"alerts"}).has_value());
  broker.flush();

  const uint64_t trace_id = 0x1122334455667788ull;
  ASSERT_TRUE(producer.publish_traced(Tags{"alerts"}, "traced", trace_id, 0x99ull));
  auto msg = consumer.receive(std::chrono::milliseconds(5000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "traced");
  // The client-supplied id is threaded through the broker's TraceContext and
  // echoed on the delivery frame.
  EXPECT_EQ(msg->trace_id, trace_id);

  // sampled=true forces retention: the trace shows up in TRACEX under the
  // external id (rendered in decimal by the Chrome-JSON exporter). The MSG
  // is written before the publish callback retains the trace, so wait for
  // the callback to return first: flush() returns only once it has.
  broker.flush();
  auto tracex = producer.tracex_json();
  ASSERT_TRUE(tracex.has_value());
  EXPECT_NE(tracex->find(std::to_string(trace_id)), std::string::npos);

  // Zero ids are invalid on the wire; the client rejects them locally.
  EXPECT_FALSE(producer.publish_traced(Tags{"alerts"}, "x", 0, 1));
  EXPECT_FALSE(producer.publish_traced(Tags{"alerts"}, "x", 1, 0));

  consumer.close();
  producer.close();
  server.stop();
}

// ------------------------------------------------ telemetry verbs end-to-end

TEST(NetTelemetry, TsqAnswersErrWithoutTelemetry) {
  auto config = server_broker_config();
  broker::Broker broker(config);
  BrokerServer server(&broker, 0);  // No telemetry layer.
  ASSERT_TRUE(server.listening());
  BrokerClient client;
  ASSERT_TRUE(client.connect(server.port()));
  EXPECT_FALSE(client.tsq_json("*").has_value());
  EXPECT_TRUE(client.ping());  // The connection survives the ERR.
  client.close();
  server.stop();
}

TEST(NetTelemetry, TsqAndTracesVerbsEndToEnd) {
  auto config = server_broker_config();
  config.tracing = true;
  broker::Broker broker(config);

  telemetry::TelemetryConfig tconfig;
  tconfig.interval = std::chrono::milliseconds(0);  // Ticks driven manually.
  tconfig.snapshot_fn = [&broker] { return broker.metrics_snapshot(); };
  tconfig.trace_fn = [&broker] { return broker.trace_snapshot(); };
  tconfig.trace_dropped_fn = [&broker] { return broker.trace_dropped(); };
  telemetry::Telemetry telemetry(std::move(tconfig));

  BrokerServer server(&broker, 0, &telemetry);
  ASSERT_TRUE(server.listening());
  BrokerClient consumer, producer;
  ASSERT_TRUE(consumer.connect(server.port()));
  ASSERT_TRUE(producer.connect(server.port()));
  ASSERT_TRUE(consumer.subscribe(Tags{"alerts"}).has_value());
  broker.flush();
  ASSERT_TRUE(producer.publish(Tags{"alerts"}, "x"));
  ASSERT_TRUE(consumer.receive(std::chrono::milliseconds(5000)).has_value());

  // Two ticks so the ring has a windowed sample of the publish.
  telemetry.tick(1'000'000'000);
  telemetry.tick(2'000'000'000);

  auto tsq = producer.tsq_json("broker.*");
  ASSERT_TRUE(tsq.has_value());
  EXPECT_EQ(tsq->front(), '{');
  EXPECT_NE(tsq->find("broker.published"), std::string::npos);
  EXPECT_EQ(tsq->find("stage."), std::string::npos);  // Glob filters.

  // STATS folds the telemetry.* registry in.
  auto stats = producer.stats_json();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("telemetry.samples"), std::string::npos);

  // TRACES pages incrementally per connection: a second call with no new
  // traffic flushes nothing.
  auto first = producer.traces_json();
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("\"flushed\":"), std::string::npos);
  EXPECT_NE(first->find("\"ph\":\"X\""), std::string::npos);
  auto second = producer.traces_json();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"flushed\":0"), std::string::npos);

  consumer.close();
  producer.close();
  server.stop();
}

}  // namespace
}  // namespace tagmatch::net
