/**
 * @file
 * Transport + framing tests for util/net: frame round-trips over a
 * real loopback connection, malformed-frame rejection (bad magic,
 * oversize length, truncation mid-frame), clean-EOF detection at
 * frame boundaries, and deadline expiry.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/net.hh"

namespace lva {
namespace {

/** A connected (client, server) stream pair over loopback. */
struct Pair
{
    TcpStream client;
    TcpStream server;
};

Pair
loopbackPair(TcpListener &listener)
{
    Pair p;
    p.client =
        TcpStream::connectTo("127.0.0.1", listener.port(), 2000);
    p.server = listener.acceptOne(2000);
    EXPECT_TRUE(p.client.valid());
    EXPECT_TRUE(p.server.valid());
    return p;
}

TEST(NetFraming, RoundTripSmallEmptyAndBinary)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    const std::vector<std::string> payloads = {
        "{\"op\":\"ping\"}",
        "",
        std::string("\x00\x01\xff\x7f bytes", 10),
    };
    for (const std::string &sent : payloads) {
        writeFrame(p.client, sent, 1000);
        std::string got;
        ASSERT_TRUE(readFrame(p.server, got, 1000));
        EXPECT_EQ(got, sent);
    }
}

TEST(NetFraming, RoundTripLargePayload)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    // Larger than any socket buffer, so both sides must loop; the
    // writer runs on its own thread while this thread drains.
    std::string sent(2u * 1024 * 1024, 'x');
    for (std::size_t i = 0; i < sent.size(); i += 4099)
        sent[i] = static_cast<char>('a' + (i % 26));

    std::thread writer(
        [&] { writeFrame(p.client, sent, 10000); });
    std::string got;
    ASSERT_TRUE(readFrame(p.server, got, 10000));
    writer.join();
    EXPECT_EQ(got, sent);
}

TEST(NetFraming, CleanEofAtFrameBoundaryReturnsFalse)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    writeFrame(p.client, "last", 1000);
    p.client.close();

    std::string got;
    ASSERT_TRUE(readFrame(p.server, got, 1000));
    EXPECT_EQ(got, "last");
    EXPECT_FALSE(readFrame(p.server, got, 1000));
}

TEST(NetFraming, BadMagicIsRejected)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    const char junk[8] = {'B', 'A', 'D', '!', 0, 0, 0, 1};
    p.client.sendAll(junk, sizeof(junk), 1000);
    std::string got;
    EXPECT_THROW(readFrame(p.server, got, 1000), NetError);
}

TEST(NetFraming, OversizeLengthIsRejectedBeforeAllocation)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    // Header advertising ~4 GiB: must be refused by the length check,
    // not by an attempted allocation.
    const unsigned char hdr[8] = {'L', 'V', 'A', '1',
                                  0xff, 0xff, 0xff, 0xff};
    p.client.sendAll(hdr, sizeof(hdr), 1000);
    std::string got;
    EXPECT_THROW(readFrame(p.server, got, 1000), NetError);
}

TEST(NetFraming, OversizePayloadIsRefusedOnSend)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    EXPECT_THROW(
        writeFrame(p.client,
                   std::string(frameMaxBytes() + 1, 'x'), 1000),
        NetError);
}

TEST(NetFraming, TruncatedHeaderIsAnError)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    // 3 of the 8 header bytes, then EOF: not a frame boundary.
    p.client.sendAll("LVA", 3, 1000);
    p.client.close();
    std::string got;
    EXPECT_THROW(readFrame(p.server, got, 1000), NetError);
}

TEST(NetFraming, TruncatedPayloadIsAnError)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    const unsigned char hdr[8] = {'L', 'V', 'A', '1', 0, 0, 0, 10};
    p.client.sendAll(hdr, sizeof(hdr), 1000);
    p.client.sendAll("half", 4, 1000);
    p.client.close();
    std::string got;
    EXPECT_THROW(readFrame(p.server, got, 1000), NetError);
}

TEST(NetFraming, ReadDeadlineExpires)
{
    TcpListener listener(0);
    Pair p = loopbackPair(listener);

    // Nothing ever arrives: the read must give up, not block.
    std::string got;
    EXPECT_THROW(readFrame(p.server, got, 50), NetError);
}

TEST(NetFraming, AcceptTimesOutWithoutAConnection)
{
    TcpListener listener(0);
    TcpStream conn = listener.acceptOne(50);
    EXPECT_FALSE(conn.valid());
}

TEST(NetFraming, ConnectToClosedPortFails)
{
    // Bind then immediately close, so the port is (briefly) known
    // dead; the connect must fail, not hang.
    u16 dead_port = 0;
    {
        TcpListener listener(0);
        dead_port = listener.port();
    }
    EXPECT_THROW(TcpStream::connectTo("127.0.0.1", dead_port, 500),
                 NetError);
}

TEST(NetFraming, EphemeralPortIsResolved)
{
    TcpListener listener(0);
    EXPECT_GT(listener.port(), 0);
}

} // namespace
} // namespace lva
