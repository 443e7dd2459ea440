// Command samstat prints samtools-flagstat-style summary statistics,
// computed in parallel with the framework's Algorithm 1 partitioning
// for SAM input or region-parallel over genomic shards for BAM/BAMX
// input.
//
// Usage:
//
//	samstat -in reads.sam -p 8
//	samstat -bam reads.bam -p 2 -workers 4 -shards 32
//	samstat -bam reads.bamx -metrics-addr :9100
//
// With -transport tcp the BAM/BAMX path becomes one rank of a
// multi-process world: rank 0 scatters shard descriptors and reduces
// the per-rank partial tallies.
package main

import (
	"flag"
	"fmt"
	"os"

	"parseq/internal/flagstat"
	"parseq/internal/mpiflag"
	"parseq/internal/obsflag"
	"parseq/internal/shard"
)

func main() {
	var (
		in       = flag.String("in", "", "SAM file")
		bam      = flag.String("bam", "", "BAM or BAMX file (region-parallel shard path)")
		cores    = flag.Int("p", 1, "parallel ranks")
		workers  = flag.Int("workers", 0, "shard workers per rank (0: one per CPU, capped)")
		shards   = flag.Int("shards", 0, "target shard count across the world (0: auto)")
		obsFlags = obsflag.Register(nil)
		mpiFlags = mpiflag.Register(nil)
	)
	flag.Parse()
	if (*in == "") == (*bam == "") {
		fmt.Fprintln(os.Stderr, "samstat: exactly one of -in (SAM) or -bam (BAM/BAMX) is required")
		flag.Usage()
		os.Exit(2)
	}
	obsSession, err := obsFlags.Start()
	if err != nil {
		die(err)
	}
	defer func() {
		if err := obsSession.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "samstat:", err)
		}
	}()
	mpiSession, err := mpiFlags.Connect()
	if err != nil {
		die(err)
	}
	defer mpiSession.Close()
	mpiSession.StartTelemetry(obsSession.View(), obsFlags.Heartbeat)
	if addr := obsSession.ServerAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "samstat: serving metrics on http://%s/metrics\n", addr)
	}
	*cores = mpiSession.Ranks(*cores)

	var stats flagstat.Stats
	if *bam != "" {
		p := shard.OpenPathProvider(*bam)
		defer p.Close()
		stats, err = flagstat.Sharded(p, shard.Config{
			Ranks:        *cores,
			Workers:      *workers,
			TargetShards: *shards,
			Launch:       mpiSession.Launcher(),
		})
		if err != nil {
			die(err)
		}
	} else {
		stats, err = flagstat.SAMFile(*in, *cores, mpiSession.Launcher())
		if err != nil {
			die(err)
		}
	}
	// Under a distributed launch the reduced tally is complete on rank 0
	// only; other ranks exit quietly.
	if mpiSession.Rank() != 0 {
		return
	}
	fmt.Print(stats.Format())
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "samstat:", err)
	os.Exit(1)
}
