#include <gtest/gtest.h>

#include "util/delay_line.hpp"
#include "util/seq_queue.hpp"

namespace rdsim::util {
namespace {

TEST(SeqQueue, FifoOrderAndPositionsSurviveGrowth) {
  SeqQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 5; ++i) q.push_back() = i;
  q.pop_front();
  q.pop_front();
  // Grows from 8 to 16 slots with the live range wrapped past slot 7.
  for (int i = 5; i < 15; ++i) q.push_back() = i;
  EXPECT_EQ(q.size(), 13u);
  EXPECT_EQ(q.head(), 2u);
  EXPECT_EQ(q.tail(), 15u);
  for (std::uint32_t pos = q.head(); pos != q.tail(); ++pos) {
    EXPECT_EQ(q[pos], static_cast<int>(pos));
  }
  // reserve() moves the live range into a larger array the same way.
  q.reserve(20);
  EXPECT_EQ(q.size(), 13u);
  EXPECT_EQ(q.back(), 14);
  for (std::uint32_t pos = q.head(); pos != q.tail(); ++pos) {
    EXPECT_EQ(q[pos], static_cast<int>(pos));
  }
  for (int i = 2; i < 15; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(SeqQueue, PoppedSlotsKeepTheirBuffers) {
  SeqQueue<std::vector<int>> q;
  for (int round = 0; round < 20; ++round) {
    std::vector<int>& slot = q.push_back();
    slot.assign(100, round);
    q.pop_front();
  }
  // Eight slots, each reused; a push returns a slot with its old capacity.
  EXPECT_GE(q.push_back().capacity(), 100u);
}

TEST(DelayLine, NothingVisibleBeforeDelayElapses) {
  DelayLine<int> dl{Duration::millis(100)};
  dl.push(TimePoint::from_micros(0), 42);
  EXPECT_EQ(dl.read(TimePoint::from_micros(50000)), nullptr);
  EXPECT_EQ(*dl.read(TimePoint::from_micros(100000)), 42);
}

TEST(DelayLine, ReturnsNewestVisibleValue) {
  DelayLine<int> dl{Duration::millis(10)};
  dl.push(TimePoint::from_micros(0), 1);
  dl.push(TimePoint::from_micros(5000), 2);
  dl.push(TimePoint::from_micros(50000), 3);
  // At t=20ms both 1 and 2 are visible; the newest wins.
  EXPECT_EQ(*dl.read(TimePoint::from_micros(20000)), 2);
  // Value 3 not yet visible; the last visible value is held.
  EXPECT_EQ(*dl.read(TimePoint::from_micros(55000)), 2);
  EXPECT_EQ(*dl.read(TimePoint::from_micros(60000)), 3);
}

TEST(DelayLine, HoldsLastValueForever) {
  DelayLine<int> dl{Duration::millis(1)};
  dl.push(TimePoint::from_micros(0), 9);
  EXPECT_EQ(*dl.read(TimePoint::from_seconds(100.0)), 9);
  EXPECT_EQ(*dl.read(TimePoint::from_seconds(200.0)), 9);
}

}  // namespace
}  // namespace rdsim::util
