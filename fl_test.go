package repro

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

func TestTrainQuickstartPath(t *testing.T) {
	fed, err := Blobs(BlobsConfig{
		Users: 20, ExamplesPer: 30, Features: 4, Classes: 3,
		TestSize: 200, Skew: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := ModelSpec{Kind: KindLogistic, Features: 4, Classes: 3, Seed: 2}
	tr, met, err := Train(spec, fed, ClientConfig{BatchSize: 10, Epochs: 2, LR: 0.05, Shuffle: true}, 20, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.85 {
		t.Fatalf("accuracy = %v", met.Accuracy)
	}
	// Continue training through the same trainer.
	if err := TrainWith(tr, fed, 5, 10, 4); err != nil {
		t.Fatal(err)
	}
}

func TestTCPFacade(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			_ = c.Send(protocol.Abort{Reason: "pong"})
			c.Close()
		}
	}()
	c, err := transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg, err := c.Recv()
	if err != nil || msg != (protocol.Abort{Reason: "pong"}) {
		t.Fatalf("recv: %v %v", msg, err)
	}
}

func TestGeneratePlanError(t *testing.T) {
	if _, err := GeneratePlan(TaskConfig{}); err == nil {
		t.Fatal("empty task config must fail")
	}
}

func TestTrainErrors(t *testing.T) {
	fed, _ := Blobs(BlobsConfig{Users: 2, ExamplesPer: 5, Features: 2, Classes: 2, TestSize: 5, Seed: 1})
	badSpec := ModelSpec{Kind: KindLogistic} // invalid dims
	if _, _, err := Train(badSpec, fed, ClientConfig{BatchSize: 1, Epochs: 1, LR: 0.1}, 1, 1, 1); err == nil {
		t.Fatal("bad spec must fail")
	}
	goodSpec := ModelSpec{Kind: KindLogistic, Features: 2, Classes: 2, Seed: 1}
	if _, _, err := Train(goodSpec, fed, ClientConfig{}, 1, 1, 1); err == nil {
		t.Fatal("bad client config must fail")
	}
	// devicesPerRound exceeding users falls back to all users.
	if _, _, err := Train(goodSpec, fed, ClientConfig{BatchSize: 2, Epochs: 1, LR: 0.1}, 1, 99, 1); err != nil {
		t.Fatal(err)
	}
}
