package service

import (
	"context"
	"testing"
	"time"
)

func qjob(id string) *Job {
	return newJob(id, Request{Type: TypePredict, Predict: &PredictRequest{
		Machine: "Yona", Kind: "bulk", Cores: 12,
	}}, context.Background(), time.Now())
}

func TestQueueBounds(t *testing.T) {
	q := NewQueue(2)
	if q.Cap() != 2 || q.Depth() != 0 {
		t.Fatalf("fresh queue cap=%d depth=%d", q.Cap(), q.Depth())
	}
	if !q.TryPush(qjob("a")) || !q.TryPush(qjob("b")) {
		t.Fatal("push into empty queue failed")
	}
	if q.TryPush(qjob("c")) {
		t.Fatal("push into full queue succeeded")
	}
	if q.Depth() != 2 {
		t.Fatalf("depth %d, want 2", q.Depth())
	}
	j, _ := q.Pop()
	if j.ID() != "a" {
		t.Fatalf("FIFO violated: got %s", j.ID())
	}
	if !q.TryPush(qjob("c")) {
		t.Fatal("push after pop failed")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(4)
	q.TryPush(qjob("a"))
	q.TryPush(qjob("b"))
	q.Close()
	if q.TryPush(qjob("c")) {
		t.Fatal("push into closed queue succeeded")
	}
	q.Close() // idempotent
	var got []string
	for j, ok := q.Pop(); ok; j, ok = q.Pop() {
		got = append(got, j.ID())
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drained %v", got)
	}
}
