type kind = Hdd | Sata_ssd | Nvme | Pmem

type t = {
  kind : kind;
  name : string;
  capacity_bytes : int;
  block_size : int;
  n_hw_queues : int;
  n_channels : int;
  read_latency_ns : float;
  write_latency_ns : float;
  bandwidth_bytes_per_ns : float;
  avg_seek_ns : float;
  supports_polling : bool;
  byte_addressable : bool;
}

let kind_to_string = function
  | Hdd -> "HDD"
  | Sata_ssd -> "SSD"
  | Nvme -> "NVMe"
  | Pmem -> "PMEM"

let gib = 1024 * 1024 * 1024

(* 15K RPM SAS drive: ~2 ms average seek + 2 ms average rotational
   delay; ~230 MB/s sustained transfer; a single mechanical "channel". *)
let hdd =
  {
    kind = Hdd;
    name = "Seagate ST600MP0005 (15K SAS)";
    capacity_bytes = 600 * gib;
    block_size = 4096;
    n_hw_queues = 1;
    n_channels = 1;
    read_latency_ns = 50_000.0;
    write_latency_ns = 50_000.0;
    bandwidth_bytes_per_ns = 0.23;
    avg_seek_ns = 4_000_000.0;
    supports_polling = false;
    byte_addressable = false;
  }

(* SATA DC SSD: AHCI single queue; ~55/66 us 4K latency; ~500 MB/s. *)
let sata_ssd =
  {
    kind = Sata_ssd;
    name = "Intel SSDSC2BX016T4 (SATA)";
    capacity_bytes = 1600 * gib;
    block_size = 4096;
    n_hw_queues = 1;
    n_channels = 4;
    read_latency_ns = 55_000.0;
    write_latency_ns = 66_000.0;
    bandwidth_bytes_per_ns = 0.5;
    avg_seek_ns = 0.0;
    supports_polling = false;
    byte_addressable = false;
  }

(* Intel P3700 PCIe NVMe: ~20 us command latency, deep internal
   parallelism, ~2 GB/s writes. *)
let nvme =
  {
    kind = Nvme;
    name = "Intel P3700 (NVMe)";
    capacity_bytes = 2000 * gib;
    block_size = 4096;
    n_hw_queues = 16;
    n_channels = 16;
    read_latency_ns = 6_000.0;
    write_latency_ns = 6_000.0;
    bandwidth_bytes_per_ns = 2.0;
    avg_seek_ns = 0.0;
    supports_polling = true;
    byte_addressable = false;
  }

(* DRAM-emulated PMEM: sub-microsecond access, very high bandwidth. *)
let pmem =
  {
    kind = Pmem;
    name = "Emulated PMEM";
    capacity_bytes = 64 * gib;
    block_size = 256;
    n_hw_queues = 16;
    n_channels = 16;
    read_latency_ns = 300.0;
    write_latency_ns = 900.0;
    bandwidth_bytes_per_ns = 8.0;
    avg_seek_ns = 0.0;
    supports_polling = true;
    byte_addressable = true;
  }

let of_kind = function
  | Hdd -> hdd
  | Sata_ssd -> sata_ssd
  | Nvme -> nvme
  | Pmem -> pmem

let all = [ hdd; sata_ssd; nvme; pmem ]

let blocks t = t.capacity_bytes / t.block_size
