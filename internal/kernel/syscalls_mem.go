package kernel

import (
	"time"

	"anception/internal/abi"
	"anception/internal/vfs"
)

func (k *Kernel) sysBrk(t *Task, args Args) Result {
	if t.AS == nil {
		return k.errResult(abi.ENOMEM)
	}
	end, err := t.AS.Brk(args.Vaddr)
	if err != nil {
		return Result{Ret: int64(end), Err: err}
	}
	return Result{Ret: int64(end)}
}

func (k *Kernel) sysMmap2(t *Task, args Args) Result {
	if t.AS == nil {
		return k.errResult(abi.ENOMEM)
	}
	pages := args.Pages
	if pages <= 0 {
		pages = 1
	}
	k.clock.Charge(t.Lane, time.Duration(pages)*k.model.PageFault)

	// Device mapping: mmap on an open device fd.
	if args.FD > 0 {
		e, ok := t.FD(args.FD)
		if !ok {
			return k.errResult(abi.EBADF)
		}
		if e.Kind != FDFile || !e.File.IsDevice() {
			return k.mmapFile(t, e, pages, args)
		}
		dev := e.File.Device()
		mdev, ok := dev.(vfs.MmapableDevice)
		if !ok {
			return k.errResult(abi.ENODEV)
		}
		exposes := mdev.MmapKind() == vfs.MmapKernelMemory
		base, err := t.AS.MapDevice(pages, args.Prot, dev.DevName(), exposes)
		if err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(base)}
	}

	// MAP_FIXED at an explicit address (Vaddr set, Tag "fixed").
	if args.Tag == "fixed" {
		if err := t.AS.MapFixed(args.Vaddr, pages, args.Prot, VMAAnon, "fixed"); err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(args.Vaddr)}
	}

	base, err := t.AS.MapAnon(pages, args.Prot, VMAAnon, args.Tag)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(base)}
}

// mmapFile maps a regular file: frames are populated with file contents.
func (k *Kernel) mmapFile(t *Task, e FDEntry, pages int, args Args) Result {
	base, err := t.AS.MapAnon(pages, args.Prot, VMAFile, e.Path)
	if err != nil {
		return k.errResult(err)
	}
	buf := make([]byte, pages*abi.PageSize)
	if _, err := e.File.ReadAt(buf, 0); err != nil {
		return k.errResult(err)
	}
	if err := t.AS.WriteBytes(k.Region(), base, buf); err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(base)}
}

func (k *Kernel) sysMunmap(t *Task, args Args) Result {
	if t.AS == nil {
		return k.errResult(abi.EINVAL)
	}
	if err := t.AS.Unmap(args.Vaddr); err != nil {
		return k.errResult(err)
	}
	return Result{}
}
