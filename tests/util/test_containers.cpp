#include <gtest/gtest.h>

#include "util/delay_line.hpp"
#include "util/ring_buffer.hpp"

namespace rdsim::util {
namespace {

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb{4};
  EXPECT_TRUE(rb.empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 1);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBuffer<int> rb{3};
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
}

TEST(RingBuffer, AtIndexesFromFront) {
  RingBuffer<int> rb{3};
  rb.push(10);
  rb.push(20);
  EXPECT_EQ(rb.at(0), 10);
  EXPECT_EQ(rb.at(1), 20);
  EXPECT_THROW(rb.at(2), std::out_of_range);
}

TEST(RingBuffer, ThrowsOnEmptyAccess) {
  RingBuffer<int> rb{2};
  EXPECT_THROW(rb.pop(), std::out_of_range);
  EXPECT_THROW(rb.front(), std::out_of_range);
}

TEST(RingBuffer, WrapsCorrectlyAfterManyOps) {
  RingBuffer<int> rb{4};
  for (int round = 0; round < 10; ++round) {
    rb.push(round * 2);
    rb.push(round * 2 + 1);
    EXPECT_EQ(rb.pop(), round * 2);
    EXPECT_EQ(rb.pop(), round * 2 + 1);
  }
}

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

TEST(RingBuffer, ZeroCapacityClampedToOne) {
  RingBuffer<int> rb{0};
  EXPECT_EQ(rb.capacity(), 1u);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.pop(), 2);
}

TEST(DelayLine, NothingVisibleBeforeDelayElapses) {
  DelayLine<int> dl{Duration::millis(100)};
  dl.push(TimePoint::from_micros(0), 42);
  EXPECT_FALSE(dl.read(TimePoint::from_micros(50000)).has_value());
  EXPECT_EQ(dl.read(TimePoint::from_micros(100000)).value(), 42);
}

TEST(DelayLine, ReturnsNewestVisibleValue) {
  DelayLine<int> dl{Duration::millis(10)};
  dl.push(TimePoint::from_micros(0), 1);
  dl.push(TimePoint::from_micros(5000), 2);
  dl.push(TimePoint::from_micros(50000), 3);
  // At t=20ms both 1 and 2 are visible; the newest wins.
  EXPECT_EQ(dl.read(TimePoint::from_micros(20000)).value(), 2);
  // Value 3 not yet visible; the last visible value is held.
  EXPECT_EQ(dl.read(TimePoint::from_micros(55000)).value(), 2);
  EXPECT_EQ(dl.read(TimePoint::from_micros(60000)).value(), 3);
}

TEST(DelayLine, HoldsLastValueForever) {
  DelayLine<int> dl{Duration::millis(1)};
  dl.push(TimePoint::from_micros(0), 9);
  EXPECT_EQ(dl.read(TimePoint::from_seconds(100.0)).value(), 9);
  EXPECT_EQ(dl.read(TimePoint::from_seconds(200.0)).value(), 9);
}

TEST(DelayLine, ClearResets) {
  DelayLine<int> dl{Duration::millis(1)};
  dl.push(TimePoint::from_micros(0), 9);
  dl.clear();
  EXPECT_FALSE(dl.read(TimePoint::from_seconds(1.0)).has_value());
  EXPECT_EQ(dl.pending(), 0u);
}

TEST(DelayLine, SetDelayAffectsVisibility) {
  DelayLine<int> dl{Duration::millis(100)};
  dl.push(TimePoint::from_micros(0), 5);
  dl.set_delay(Duration::millis(10));
  EXPECT_EQ(dl.read(TimePoint::from_micros(10000)).value(), 5);
}

}  // namespace
}  // namespace rdsim::util
