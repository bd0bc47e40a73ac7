package repro

import (
	"testing"
	"time"

	"repro/internal/protocol"
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

func TestSimulateFacade(t *testing.T) {
	p, err := GeneratePlan(TaskConfig{
		TaskID: "pop/t", Population: "pop",
		Model:     ModelSpec{Kind: KindLogistic, Features: 4, Classes: 2, Seed: 1},
		StoreName: "s", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 20, SelectionTimeout: time.Minute, ReportTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{
		Population: PopulationConfig{Size: 500, Seed: 1},
		Plan:       p,
		Duration:   6 * time.Hour,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRounds() == 0 {
		t.Fatal("no rounds completed")
	}
}

func TestStorageFacade(t *testing.T) {
	s := NewMemStorage()
	if s == nil {
		t.Fatal("nil storage")
	}
	fs, err := NewFileStorage(t.TempDir())
	if err != nil || fs == nil {
		t.Fatalf("file storage: %v", err)
	}
}

func TestDeviceRuntimeFacade(t *testing.T) {
	rt := NewDeviceRuntime("d1", 3, 1)
	store, err := NewExampleStore("s", 10, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterStore(store); err != nil {
		t.Fatal(err)
	}
}

func TestAttestationFacade(t *testing.T) {
	master := []byte("secret")
	v := NewAttestationVerifier(master)
	d := NewGenuineDevice(master, "d1")
	tok := d.Mint("pop", time.Now())
	if err := v.Verify("d1", "pop", tok, time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticsFacade(t *testing.T) {
	q := LabelHistogram(3)
	v, err := AnalyticsVector(q, []Example{{Y: 0}, {Y: 2}, {Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 || v[2] != 2 {
		t.Fatalf("vector = %v", v)
	}
	tq := TokenHistogram(4)
	tv, err := AnalyticsVector(tq, []Example{{Seq: []int{1, 1, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if tv[1] != 2 || tv[3] != 1 {
		t.Fatalf("token vector = %v", tv)
	}
	total, err := AggregateAnalytics(map[int][]float64{1: v, 2: v}, 3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total[2] != 4 {
		t.Fatalf("total = %v", total)
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
	c, err := DialTCP(l.Addr())
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

func TestNewServerFacade(t *testing.T) {
	p, err := GeneratePlan(TaskConfig{
		TaskID: "pop/t", Population: "pop",
		Model:     ModelSpec{Kind: KindLogistic, Features: 2, Classes: 2, Seed: 1},
		StoreName: "s", BatchSize: 1, Epochs: 1, LearningRate: 0.1, TargetDevices: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Population: "pop", Plans: []*Plan{p}, Store: NewMemStorage(), MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}
