package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// scheduledJob is one job of the serve-bursts open-loop schedule.
type scheduledJob struct {
	Name    string        // unique job name (becomes the job ID)
	Due     time.Duration // send time, relative to the schedule start
	Burst   int
	Dataset string
	Tenant  string
}

// burstParams fixes the shape of the serve-bursts schedule. The values are
// recorded in every result stamp.
type burstParams struct {
	Bursts   int           // number of bursts
	Size     int           // jobs per burst, a multiple of len(datasets)
	Every    time.Duration // nominal spacing between bursts
	JitterMS int           // each burst starts up to this much after its slot
	Tenants  int
}

// burstSchedule builds the open-loop schedule as a pure function of seed:
// every burst holds the same multiset of specs (Size/len(datasets) jobs per
// dataset), so the offered work is identical across seeds, while the seed
// decides the order of jobs inside each burst and each burst's start jitter.
// Jobs take tenants round-robin by global index.
func burstSchedule(seed int64, p burstParams, datasets []string, prefix string) []scheduledJob {
	rng := rand.New(rand.NewSource(seed))
	per := p.Size / len(datasets)
	var jobs []scheduledJob
	for b := 0; b < p.Bursts; b++ {
		start := time.Duration(b)*p.Every + time.Duration(rng.Intn(p.JitterMS+1))*time.Millisecond
		order := make([]string, 0, p.Size)
		for _, d := range datasets {
			for i := 0; i < per; i++ {
				order = append(order, d)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for i, d := range order {
			k := len(jobs)
			jobs = append(jobs, scheduledJob{
				Name:    fmt.Sprintf("%sb%03d-%02d-%s", prefix, b, i, strings.ToLower(d)),
				Due:     start,
				Burst:   b,
				Dataset: d,
				Tenant:  fmt.Sprintf("t%d", k%p.Tenants),
			})
		}
	}
	return jobs
}

// permute returns a seeded permutation of 0..n-1: the batch workloads run
// their fixed items in this order, so the seed changes the order of work
// but never its amount.
func permute(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
