// Tests for the batching inference service (src/serve): micro-batch
// coalescing policy, the multi-model registry, admission control, and the
// end-to-end determinism contract — logits served through any batch are
// bitwise-identical to a direct single-shot engine run.
#include "serve/loadgen.hpp"
#include "serve/registry.hpp"
#include "serve/serve.hpp"

#include "appmult/registry.hpp"
#include "kernels/simd/simd.hpp"
#include "kernels/tuning.hpp"
#include "models/models.hpp"
#include "train/pipeline.hpp"
#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <thread>

namespace {

using namespace amret;

// ------------------------------------------------------------ BatchBuilder

using IntBuilder = serve::detail::BatchBuilder<int>;

TEST(ServeBatchBuilder, FlushesWhenFull) {
    IntBuilder b(4, 1'000'000); // deadline far away: only fullness triggers
    for (int i = 0; i < 3; ++i) b.add(i, 100);
    EXPECT_TRUE(b.take_due(101, false).empty()) << "partial batch, no deadline";
    b.add(3, 100);
    const auto batch = b.take_due(101, false);
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(b.size(), 0u);
}

TEST(ServeBatchBuilder, FlushesAtDeadline) {
    IntBuilder b(8, 500);
    b.add(1, 1000);
    EXPECT_TRUE(b.take_due(1499, false).empty());
    const auto batch = b.take_due(1500, false); // oldest waited >= deadline
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], 1);
}

TEST(ServeBatchBuilder, KeepsFifoOrderAndCapsBatch) {
    IntBuilder b(3, 0); // deadline 0: everything due immediately
    for (int i = 0; i < 7; ++i) b.add(i, i);
    const auto first = b.take_due(10, false);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
    const auto second = b.take_due(10, false);
    EXPECT_EQ(second, (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(b.take_due(10, false), std::vector<int>{6});
}

TEST(ServeBatchBuilder, ForceFlushesPartial) {
    IntBuilder b(8, 1'000'000);
    b.add(42, 0);
    EXPECT_TRUE(b.take_due(1, false).empty());
    EXPECT_EQ(b.take_due(1, true), std::vector<int>{42});
}

TEST(ServeBatchBuilder, ExpiresOldestFirst) {
    IntBuilder b(8, 1'000'000);
    b.add(1, 100);
    b.add(2, 200);
    b.add(3, 300);
    EXPECT_EQ(b.expire_older_than(250), (std::vector<int>{1, 2}));
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.take_due(0, true), std::vector<int>{3});
}

TEST(ServeBatchBuilder, NextFlushTracksOldest) {
    IntBuilder b(2, 500);
    EXPECT_EQ(b.next_flush_us(), std::numeric_limits<std::int64_t>::max());
    b.add(1, 1000);
    EXPECT_EQ(b.next_flush_us(), 1500);
    b.add(2, 2000); // now full: due immediately
    EXPECT_LE(b.next_flush_us(), 1500);
}

// ----------------------------------------------------------- ModelRegistry

TEST(ServeRegistry, KeyIsContentAddressed) {
    const serve::ModelSpec a{"lenet", "mul8u_acc", "v0"};
    const serve::ModelSpec b{"lenet", "mul8u_acc", "v0"};
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.key(), (serve::ModelSpec{"lenet", "mul8u_acc", "v1"}.key()));
    EXPECT_NE(a.key(), (serve::ModelSpec{"lenet", "mul7u_rm6", "v0"}.key()));
    EXPECT_NE(a.key(), (serve::ModelSpec{"vgg11", "mul8u_acc", "v0"}.key()));
    // Field boundaries matter: ("ab","c") != ("a","bc").
    EXPECT_NE((serve::ModelSpec{"ab", "c", ""}.key()),
              (serve::ModelSpec{"a", "bc", ""}.key()));
    EXPECT_EQ(a.key().size(), 16u);
}

// A loader that returns null engines — registry mechanics don't need a real
// model, and InferenceServer is never involved in these tests.
serve::ModelRegistry::Loader counting_loader(std::atomic<int>& loads) {
    return [&loads](const serve::ModelSpec&) {
        loads.fetch_add(1);
        // A non-null placeholder; never dereferenced by the registry.
        return std::shared_ptr<approx::IntInferenceEngine>(
            reinterpret_cast<approx::IntInferenceEngine*>(0x1),
            [](approx::IntInferenceEngine*) {});
    };
}

TEST(ServeRegistry, CachesAndCountsHits) {
    std::atomic<int> loads{0};
    serve::ModelRegistry registry(counting_loader(loads), 4);
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    auto r1 = registry.acquire(spec);
    auto r2 = registry.acquire(spec);
    EXPECT_EQ(r1.get(), r2.get());
    EXPECT_EQ(loads.load(), 1);
    const auto stats = registry.stats();
    EXPECT_EQ(stats.loads, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.resident, 1u);
}

TEST(ServeRegistry, EvictsLeastRecentlyUsed) {
    std::atomic<int> loads{0};
    serve::ModelRegistry registry(counting_loader(loads), 2);
    const serve::ModelSpec a{"m", "a", ""}, b{"m", "b", ""}, c{"m", "c", ""};
    auto ra = registry.acquire(a);
    registry.acquire(b);
    registry.acquire(a);              // a is now most recently used
    registry.acquire(c);              // evicts b, the LRU victim
    EXPECT_EQ(registry.stats().evictions, 1);
    EXPECT_EQ(registry.stats().resident, 2u);
    const auto keys = registry.resident_keys();
    EXPECT_EQ(keys.front(), c.key());
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), b.key()) == keys.end());
    registry.acquire(b);              // reload after eviction
    EXPECT_EQ(loads.load(), 4);
    // The shared_ptr handed out before eviction stays valid throughout.
    EXPECT_EQ(ra->spec, a);
}

TEST(ServeRegistry, SingleFlightColdLoad) {
    std::atomic<int> loads{0};
    std::atomic<int> in_loader{0};
    serve::ModelRegistry registry(
        [&](const serve::ModelSpec&) {
            in_loader.fetch_add(1);
            loads.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            EXPECT_EQ(in_loader.load(), 1) << "two loads of one spec raced";
            in_loader.fetch_sub(1);
            return std::shared_ptr<approx::IntInferenceEngine>(
                reinterpret_cast<approx::IntInferenceEngine*>(0x1),
                [](approx::IntInferenceEngine*) {});
        },
        4);
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<serve::Resident>> out(8);
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&, i] { out[i] = registry.acquire(spec); });
    for (auto& t : threads) t.join();
    EXPECT_EQ(loads.load(), 1);
    for (int i = 1; i < 8; ++i) EXPECT_EQ(out[0].get(), out[i].get());
}

TEST(ServeRegistry, FailedLoadRetriesLater) {
    std::atomic<int> calls{0};
    serve::ModelRegistry registry(
        [&](const serve::ModelSpec&)
            -> std::shared_ptr<approx::IntInferenceEngine> {
            if (calls.fetch_add(1) == 0)
                throw std::runtime_error("transient load failure");
            return std::shared_ptr<approx::IntInferenceEngine>(
                reinterpret_cast<approx::IntInferenceEngine*>(0x1),
                [](approx::IntInferenceEngine*) {});
        },
        4);
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    EXPECT_THROW(registry.acquire(spec), std::runtime_error);
    EXPECT_EQ(registry.stats().resident, 0u);
    EXPECT_NE(registry.acquire(spec), nullptr); // the failure wasn't cached
    EXPECT_EQ(calls.load(), 2);
}

// ----------------------------------------------- end-to-end serving fixture

/// Trains one tiny LeNet on the synthetic task once per process and exposes
/// a registry loader that compiles an IntInferenceEngine per multiplier from
/// the shared snapshot — the same recipe as `amret_cli serve`.
class ServeEndToEnd : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        data::SyntheticConfig dc;
        dc.num_classes = 6;
        dc.height = dc.width = 8;
        dc.train_samples = 240;
        dc.test_samples = 120;
        dc.noise_stddev = 0.3f;
        dc.seed = 77;
        data_ = new data::DatasetPair(data::make_synthetic(dc));

        models::ModelConfig mc;
        mc.in_size = 8;
        mc.num_classes = 6;
        mc.width_mult = 0.5f;
        auto model = train::make_model("lenet", mc);
        auto& reg = appmult::Registry::instance();
        approx::MultiplierConfig config;
        config.lut =
            std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
        config.grad = std::make_shared<core::GradLut>(
            core::build_ste_grad(reg.info("mul8u_acc").bits));
        approx::configure_approx_layers(*model, config,
                                        approx::ComputeMode::kQuantized);
        train::TrainConfig tc;
        tc.epochs = 2;
        tc.batch_size = 24;
        tc.lr = 3e-3;
        train::Trainer trainer(*model, data_->train, data_->test, tc);
        trainer.train_only(2);
        snapshot_ = new train::ModelSnapshot(train::snapshot(*model));
    }

    static void TearDownTestSuite() {
        delete snapshot_;
        snapshot_ = nullptr;
        delete data_;
        data_ = nullptr;
    }

    static std::shared_ptr<approx::IntInferenceEngine>
    load_engine(const serve::ModelSpec& spec) {
        models::ModelConfig mc;
        mc.in_size = 8;
        mc.num_classes = 6;
        mc.width_mult = 0.5f;
        auto m = train::make_model(spec.model, mc);
        auto& reg = appmult::Registry::instance();
        approx::MultiplierConfig config;
        config.lut =
            std::make_shared<appmult::AppMultLut>(reg.lut(spec.multiplier));
        config.grad = std::make_shared<core::GradLut>(
            core::build_ste_grad(reg.info(spec.multiplier).bits));
        approx::configure_approx_layers(*m, config,
                                        approx::ComputeMode::kQuantized);
        train::restore(*m, *snapshot_);
        m->set_training(false);
        return std::make_shared<approx::IntInferenceEngine>(*m, data_->train,
                                                            64);
    }

    static serve::ModelRegistry make_registry(std::size_t capacity = 4) {
        return serve::ModelRegistry(&ServeEndToEnd::load_engine, capacity);
    }

    /// Test sample i as a (1, C, H, W) tensor.
    static tensor::Tensor sample(std::int64_t i) {
        const auto& test = data_->test;
        tensor::Tensor t(
            tensor::Shape{1, test.channels, test.height, test.width});
        std::copy_n(test.images.data() + i * test.sample_numel(),
                    test.sample_numel(), t.data());
        return t;
    }

    static data::DatasetPair* data_;
    static train::ModelSnapshot* snapshot_;
};

data::DatasetPair* ServeEndToEnd::data_ = nullptr;
train::ModelSnapshot* ServeEndToEnd::snapshot_ = nullptr;

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(ServeEndToEnd, ServedLogitsBitwiseMatchSingleShot) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    // Direct single-shot reference, one sample at a time.
    auto engine = load_engine(spec);
    std::vector<tensor::Tensor> expected;
    for (std::int64_t i = 0; i < 24; ++i)
        expected.push_back(engine->forward(sample(i)));

    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 8;
    sc.deadline_us = 2000;
    serve::InferenceServer server(registry, sc);
    std::vector<std::future<serve::Result>> futures;
    for (std::int64_t i = 0; i < 24; ++i)
        futures.push_back(server.submit(spec, sample(i)));
    bool saw_multi_row_batch = false;
    for (std::int64_t i = 0; i < 24; ++i) {
        serve::Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.status, serve::Status::kOk) << "request " << i;
        ASSERT_EQ(r.logits.numel(), 6);
        EXPECT_TRUE(bitwise_equal(r.logits, expected[static_cast<std::size_t>(i)]))
            << "batched logits diverged from single-shot at request " << i;
        saw_multi_row_batch |= r.batch_size > 1;
    }
    server.stop(true);
    EXPECT_TRUE(saw_multi_row_batch)
        << "coalescer never packed a multi-row batch";
    EXPECT_EQ(server.stats().served, 24);
}

TEST_F(ServeEndToEnd, BlockedServePathMatchesScalarOracleBitwise) {
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    // Reference: an engine on the scalar panel loop over degenerate 1x1x1
    // panels (one LUT lookup per accumulator step, no SIMD), single-shot,
    // no server involved.
    kernels::simd::set_isa_for_test(kernels::simd::Isa::kScalar);
    kernels::Tuning::set_for_test(kernels::Tuning{1, 1, 1});
    auto oracle = load_engine(spec);
    std::vector<tensor::Tensor> expected;
    for (std::int64_t i = 0; i < 16; ++i)
        expected.push_back(oracle->forward(sample(i)));
    kernels::Tuning::clear_test_override();
    kernels::simd::clear_isa_override();

    // Served traffic compiles its own engine with the default tiles and
    // dispatch level and runs the whole fused assembly: batch coalescing ->
    // plan-keyed workspace epoch -> fused im2col panel packing -> SIMD
    // LUT-GEMM.
    auto registry = make_registry();
    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 8;
    sc.deadline_us = 2000;
    serve::InferenceServer server(registry, sc);
    std::vector<std::future<serve::Result>> futures;
    for (std::int64_t i = 0; i < 16; ++i)
        futures.push_back(server.submit(spec, sample(i)));
    for (std::int64_t i = 0; i < 16; ++i) {
        serve::Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.status, serve::Status::kOk) << "request " << i;
        EXPECT_TRUE(bitwise_equal(r.logits, expected[static_cast<std::size_t>(i)]))
            << "blocked serve path diverged from the scalar oracle at request "
            << i;
    }
    server.stop(true);
}

TEST_F(ServeEndToEnd, AdmissionRejectsWhenQueueFull) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec); // pre-warm so submit never blocks on a load

    serve::ServeConfig sc;
    sc.workers = 1;
    sc.queue_depth = 4;
    sc.max_batch = 4;
    sc.deadline_us = 100;
    serve::InferenceServer server(registry, sc);
    server.set_paused(true); // nothing drains: the queue must fill

    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(server.submit(spec, sample(i)));

    int ok = 0, rejected = 0;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        if (futures[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            EXPECT_EQ(futures[i].get().status, serve::Status::kRejected);
            ++rejected;
        } else {
            pending.push_back(i);
        }
    }
    EXPECT_EQ(rejected, 6) << "queue_depth=4 must reject the overflow";

    server.set_paused(false); // the 4 admitted requests now get served
    for (const std::size_t i : pending) {
        EXPECT_EQ(futures[i].get().status, serve::Status::kOk);
        ++ok;
    }
    EXPECT_EQ(ok, 4);
    server.stop(true);
    const auto stats = server.stats();
    EXPECT_EQ(stats.rejected, 6);
    EXPECT_EQ(stats.served, 4);
}

TEST_F(ServeEndToEnd, QueueTimeoutWhilePaused) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);

    serve::ServeConfig sc;
    sc.workers = 1;
    sc.queue_timeout_us = 20'000; // 20 ms
    serve::InferenceServer server(registry, sc);
    server.set_paused(true);
    auto future = server.submit(spec, sample(0));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    server.set_paused(false);
    EXPECT_EQ(future.get().status, serve::Status::kTimeout);
    server.stop(true);
    EXPECT_EQ(server.stats().timeouts, 1);
}

TEST_F(ServeEndToEnd, BadShapeAndUnknownModelAreTyped) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    serve::ServeConfig sc;
    serve::InferenceServer server(registry, sc);

    // Establish the (C, H, W) contract, then violate it.
    EXPECT_EQ(server.submit(spec, sample(0)).get().status, serve::Status::kOk);
    tensor::Tensor wrong(tensor::Shape{1, 3, 4, 4});
    EXPECT_EQ(server.submit(spec, wrong).get().status,
              serve::Status::kBadRequest);

    const serve::ModelSpec unknown{"lenet", "no_such_multiplier", "v0"};
    EXPECT_EQ(server.submit(unknown, sample(0)).get().status,
              serve::Status::kLoadFailed);
    server.stop(true);
    EXPECT_EQ(server.stats().bad_requests, 1);
    EXPECT_EQ(server.stats().load_failures, 1);
}

TEST_F(ServeEndToEnd, ConcurrentClientsTwoModelsStayDeterministic) {
    auto registry = make_registry();
    const serve::ModelSpec specs[2] = {{"lenet", "mul8u_acc", "v0"},
                                       {"lenet", "mul7u_rm6", "v0"}};
    // Single-shot references for both models over the first 8 samples.
    tensor::Tensor expected[2][8];
    for (int m = 0; m < 2; ++m) {
        auto engine = load_engine(specs[m]);
        for (std::int64_t i = 0; i < 8; ++i)
            expected[m][i] = engine->forward(sample(i));
    }

    serve::ServeConfig sc;
    sc.workers = 3;
    sc.max_batch = 4;
    sc.deadline_us = 500;
    serve::InferenceServer server(registry, sc);

    constexpr int kClients = 8, kPerClient = 25;
    std::atomic<int> mismatches{0}, failures{0};
    std::vector<std::thread> clients;
    for (int ci = 0; ci < kClients; ++ci) {
        clients.emplace_back([&, ci] {
            for (int r = 0; r < kPerClient; ++r) {
                const int m = (ci + r) % 2;
                const std::int64_t i = (ci * 7 + r) % 8;
                serve::Result result =
                    server.submit(specs[m], sample(i)).get();
                if (result.status != serve::Status::kOk) {
                    failures.fetch_add(1);
                    continue;
                }
                if (!bitwise_equal(result.logits,
                                   expected[m][static_cast<std::size_t>(i)]))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    server.stop(true);
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0)
        << "a batched run diverged from its single-shot reference";
    const auto stats = server.stats();
    EXPECT_EQ(stats.served, kClients * kPerClient);
    EXPECT_EQ(registry.stats().resident, 2u);
}

TEST_F(ServeEndToEnd, StopWithoutDrainFailsPendingTyped) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);
    serve::ServeConfig sc;
    sc.workers = 1;
    serve::InferenceServer server(registry, sc);
    server.set_paused(true);
    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(server.submit(spec, sample(i)));
    server.stop(/*drain=*/false);
    for (auto& f : futures)
        EXPECT_EQ(f.get().status, serve::Status::kShutdown);
    EXPECT_EQ(server.submit(spec, sample(0)).get().status,
              serve::Status::kShutdown);
}

TEST_F(ServeEndToEnd, LoadGenReportsServedTraffic) {
    auto registry = make_registry();
    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 8;
    serve::InferenceServer server(registry, sc);
    std::vector<serve::ModelSpec> hot{{"lenet", "mul8u_acc", "v0"}};
    std::vector<serve::ModelSpec> cold{{"lenet", "mul7u_rm6", "v0"}};
    std::vector<tensor::Tensor> samples;
    for (std::int64_t i = 0; i < 4; ++i) samples.push_back(sample(i));

    serve::LoadGenConfig lc;
    lc.clients = 4;
    lc.duration_ms = 200;
    lc.hot_fraction = 0.75;
    const auto report = serve::run_loadgen(server, hot, cold, samples, lc);
    server.stop(true);
    EXPECT_GT(report.total, 0);
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.errors, 0);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GE(report.p99_us, report.p50_us);
    EXPECT_EQ(static_cast<std::int64_t>(report.latencies_us.size()), report.ok);
}

} // namespace
