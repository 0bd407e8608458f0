// core::OpDriver: the closed and open launch loops and the one op ledger
// behind them (every issued op resolved or censored, exactly once).
#include "core/op_driver.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/world.h"

namespace pqs::core {
namespace {

struct OpDriverLoop : ::testing::Test {
    net::World world{[] {
        net::WorldParams p;
        p.n = 10;
        p.seed = 11;
        p.oracle_neighbors = true;
        return p;
    }()};
    ServiceContext ctx{world};

    void SetUp() override {
        ctx.op_timeout = 100 * sim::kMillisecond;
        world.start();
    }
    sim::Time now() { return world.simulator().now(); }
};

TEST(AccessBudget, CountsEveryAttemptAndBackoff) {
    RetryPolicy retry;
    EXPECT_EQ(access_budget(sim::kSecond, retry), sim::kSecond);
    retry.max_attempts = 3;
    retry.backoff = 500 * sim::kMillisecond;
    retry.backoff_factor = 2.0;
    // 3 × 1 s of attempts + 0.5 s + 1 s of backoff.
    EXPECT_EQ(access_budget(sim::kSecond, retry), 4500 * sim::kMillisecond);
}

TEST_F(OpDriverLoop, ClosedLoopLaunchesSpacingAfterEachResolution) {
    OpDriver driver(ctx);
    std::vector<sim::Time> launched_at;
    driver.run_closed(3, 50 * sim::kMillisecond, [&](std::size_t) {
        launched_at.push_back(now());
        EXPECT_EQ(driver.issue().resolve(), sim::Time{0});  // time waited
        return true;
    });
    ASSERT_EQ(launched_at.size(), 3u);
    EXPECT_EQ(launched_at[1] - launched_at[0], 50 * sim::kMillisecond);
    EXPECT_EQ(launched_at[2] - launched_at[1], 50 * sim::kMillisecond);
    EXPECT_EQ(driver.issued(), 3u);
    EXPECT_EQ(driver.resolved(), 3u);
    EXPECT_EQ(driver.censored(), 0u);
}

TEST_F(OpDriverLoop, StragglerCompletionAfterReturnIsSafe) {
    // An op that outlives the driver: run_closed returns at its deadline
    // while op 0 is still unresolved, and the driver is destroyed.
    // Completing the op afterwards reaches the shared ledger, finds the op
    // censored and launches nothing — the driver's old scheduled events
    // referenced a stack-local std::function, so this sequence was a
    // use-after-scope (caught by ASan).
    std::optional<OpDriver::Ticket> straggler;
    std::size_t launched = 0;
    {
        OpDriver driver(ctx);
        driver.run_closed(4, 50 * sim::kMillisecond, [&](std::size_t i) {
            ++launched;
            const OpDriver::Ticket op = driver.issue();
            if (i == 0) {
                straggler = op;  // stalls the chain
            } else {
                op.resolve();
            }
            return true;
        });
        EXPECT_EQ(launched, 1u);  // the driver gave up waiting on op 0
        EXPECT_EQ(driver.censored(), 1u);
    }
    ASSERT_TRUE(straggler.has_value());
    EXPECT_FALSE(straggler->resolve().has_value());
    world.simulator().run_until(now() + 5 * sim::kSecond);
    EXPECT_EQ(launched, 1u);  // a censored op resumes nothing
}

TEST_F(OpDriverLoop, LaunchReturningFalseStopsTheChain) {
    OpDriver driver(ctx);
    std::size_t launched = 0;
    driver.run_closed(100, 10 * sim::kMillisecond, [&](std::size_t) {
        if (++launched == 3) {
            return false;
        }
        driver.issue().resolve();
        return true;
    });
    EXPECT_EQ(launched, 3u);
    EXPECT_EQ(driver.issued(), 2u);
    EXPECT_EQ(driver.resolved(), 2u);
}

TEST_F(OpDriverLoop, ClosedLoopCensorsALostCallbackExactlyOnce) {
    std::vector<std::size_t> censored_ids;
    sim::Time waited = 0;
    const sim::Time start = now();
    {
        OpDriver driver(ctx, [&](std::size_t id, sim::Time w) {
            censored_ids.push_back(id);
            waited = w;
        });
        driver.run_closed(2, 10 * sim::kMillisecond, [&](std::size_t i) {
            const OpDriver::Ticket op = driver.issue();
            if (i == 0) {
                op.resolve();
            }  // op 1's callback never fires
            return true;
        });
        EXPECT_EQ(driver.issued(), 2u);
        EXPECT_EQ(driver.resolved(), 1u);
        EXPECT_EQ(driver.censored(), 1u);
        // Op 1 launched 10 ms in; the cutoff came at the deadline or when
        // the simulator ran dry, whichever was first.
        EXPECT_EQ(waited, now() - start - 10 * sim::kMillisecond);
    }  // destroying the driver must not censor it a second time
    EXPECT_EQ(censored_ids, std::vector<std::size_t>{1});
}

TEST_F(OpDriverLoop, OpenLoopCensorsALostCallbackExactlyOnce) {
    util::Rng rng(5);
    std::vector<std::size_t> censored_ids;
    std::vector<OpDriver::Ticket> tickets;
    std::size_t draws = 0;
    {
        OpDriver driver(ctx, [&](std::size_t id, sim::Time waited) {
            censored_ids.push_back(id);
            EXPECT_GT(waited, 0);
        });
        driver.run_open(
            20.0, 2 * sim::kSecond, sim::kSecond, rng, [&] { ++draws; },
            [&](std::size_t) {
                // Every op but the first resolves on the spot.
                tickets.push_back(driver.issue());
                if (tickets.size() > 1) {
                    tickets.back().resolve();
                }
                return true;
            });
        EXPECT_EQ(draws, tickets.size());
        ASSERT_GT(tickets.size(), 1u);
        EXPECT_EQ(driver.issued(), tickets.size());
        EXPECT_EQ(driver.resolved(), tickets.size() - 1);
        EXPECT_EQ(driver.censored(), 1u);
    }
    EXPECT_EQ(censored_ids, std::vector<std::size_t>{0});
    // A late completion is ignored.
    EXPECT_FALSE(tickets.front().resolve().has_value());
}

TEST_F(OpDriverLoop, OpenLoopArrivalsStopAtTheHorizon) {
    util::Rng rng(6);
    OpDriver driver(ctx);
    const sim::Time end = now() + 3 * sim::kSecond;
    sim::Time last_launch = 0;
    driver.run_open(
        50.0, 3 * sim::kSecond, 2 * sim::kSecond, rng, nullptr,
        [&](std::size_t) {
            last_launch = now();
            return true;  // issues nothing: a skipped slot
        });
    EXPECT_LT(last_launch, end);
    EXPECT_GT(driver.skipped(), 0u);
    EXPECT_EQ(driver.issued(), 0u);
    EXPECT_EQ(now(), end + 2 * sim::kSecond);
}

}  // namespace
}  // namespace pqs::core
